// Package opts holds the setters gate's fixture structs.
package opts

// Options is the budgeted struct.
type Options struct {
	// Name is set by the tool: not reported.
	Name string
	// Size is set only through Other.Size, a same-named field of
	// another struct: reported.
	Size int
	// Depth is set only by Options' own defaulting code: reported.
	Depth int
}

// Other is a struct that is not budgeted.
type Other struct {
	// Size shares its name with Options.Size.
	Size int
}

// WithDefaults fills the zero fields.
func (o Options) WithDefaults() Options {
	if o.Depth == 0 {
		o.Depth = 4
	}
	return o
}
