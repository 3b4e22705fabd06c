// Command tool uses the fixture packages the way a daemon would.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"surface/internal/lib"
	"surface/internal/opts"
)

func main() {
	var p lib.Policy
	flag.Var(&p, "policy", "a policy")
	flag.Parse()
	fmt.Println(lib.Kind(1), lib.Measure(lib.Square{Side: 2}))
	fmt.Println(errors.Is(&lib.WrapErr{Err: io.EOF}, io.EOF), lib.Live{}.Close())
	var o opts.Other
	o.Size = 3
	fmt.Println(opts.Options{Name: "x"}.WithDefaults(), o)
}
