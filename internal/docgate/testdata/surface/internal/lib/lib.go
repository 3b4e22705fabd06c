// Package lib holds the callers gate's fixture methods: which of them
// the gate must report is written on each.
package lib

import "strconv"

// Live is a type whose Close is called.
type Live struct{}

// Close is called by the tool: not reported.
func (Live) Close() error { return nil }

// Dead is a type whose Close nothing calls.
type Dead struct{}

// Close shares its name with Live.Close, which is called, but nothing
// calls this one: reported.
func (Dead) Close() error { return nil }

// Chaos is a fault-injection control.
type Chaos struct{}

// Kill is allow-listed, but no file names it, test or not: reported.
func (*Chaos) Kill() {}

// Heal is allow-listed and named only by a test: not reported.
func (*Chaos) Heal() {}

// Shape is a module interface whose method the tool calls.
type Shape interface{ Area() int }

// Measure calls Area through Shape.
func Measure(s Shape) int { return s.Area() }

// Square is only ever a Shape.
type Square struct{ Side int }

// Area is reached only through Shape: not reported.
func (s Square) Area() int { return s.Side * s.Side }

// Policy is bound as a command-line flag.
type Policy int

// Set is reached only through flag.Value: not reported.
func (p *Policy) Set(s string) error {
	n, err := strconv.Atoi(s)
	*p = Policy(n)
	return err
}

// String is reached only through flag.Value: not reported.
func (p Policy) String() string { return strconv.Itoa(int(p)) }

// Kind is printed with fmt.
type Kind int

// String is reached only through fmt.Stringer: not reported.
func (k Kind) String() string { return "kind" + strconv.Itoa(int(k)) }

// WrapErr wraps another error.
type WrapErr struct{ Err error }

// Error is reached only through the error interface: not reported.
func (e *WrapErr) Error() string { return "wrapped: " + e.Err.Error() }

// Unwrap is reached only through errors.Is: not reported.
func (e *WrapErr) Unwrap() error { return e.Err }
