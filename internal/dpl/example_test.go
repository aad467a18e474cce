package dpl_test

import (
	"context"
	"fmt"

	"mbd/internal/dpl"
)

// ExampleCompile shows the full Translator pipeline: parse, check
// against an allowed-function table, compile to bytecode, run.
func ExampleCompile() {
	bindings := dpl.Std()
	bindings.Register("deviceTemp", 0, func(*dpl.Env, []dpl.Value) (dpl.Value, error) {
		return dpl.Int(73), nil
	})

	prog, err := dpl.Parse(`
func main() {
	var t = deviceTemp();
	if (t > 70) { return sprintf("overheating: %d", t); }
	return "nominal";
}`)
	if err != nil {
		fmt.Println(err)
		return
	}
	compiled, err := dpl.Compile(prog, bindings)
	if err != nil {
		fmt.Println(err)
		return
	}
	vm := dpl.NewVM(compiled, bindings)
	v, err := vm.Run(context.Background(), "main")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(v)
	// Output: overheating: 73
}

// ExampleCheck demonstrates the paper's safety rule: a delegated
// program binding to a function outside the allowed set is rejected at
// translation time.
func ExampleCheck() {
	prog, _ := dpl.Parse(`func main() { exec("/bin/sh"); }`)
	errs := dpl.Check(prog, dpl.Std())
	fmt.Println(len(errs) > 0)
	// Output: true
}

// ExampleControl shows thread-style lifecycle control over a running
// program instance.
func ExampleControl() {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`func main() { while (true) {} }`, bindings)
	ctrl := &dpl.Control{}
	vm := dpl.NewVM(compiled, bindings, dpl.WithControl(ctrl))
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(context.Background(), "main")
		done <- err
	}()
	ctrl.Terminate()
	fmt.Println(<-done)
	// Output: dpl: instance terminated
}
