package gen_test

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/options"
)

// ExampleGenerate emits the COPS-HTTP framework and lists what the
// template produced.
func ExampleGenerate() {
	artifact, err := gen.Generate("nserver", options.COPSHTTP())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("package:", artifact.Package)
	fmt.Println("files:  ", artifact.FileNames())
	fmt.Println("classes >= 10:", artifact.Stats().Classes >= 10)
	// Output:
	// package: nserver
	// files:   [cache.go doc.go events.go framework.go lifecycle.go queue.go]
	// classes >= 10: true
}

// ExampleGenerate_featureWeaving demonstrates generation-time weaving:
// without the cache option there is no cache file at all.
func ExampleGenerate_featureWeaving() {
	o := options.COPSHTTP()
	o.Cache = options.NoCache
	o.CacheCapacity = 0
	artifact, _ := gen.Generate("nserver", o)
	fmt.Println(artifact.FileNames())
	// Output:
	// [doc.go events.go framework.go lifecycle.go queue.go]
}

// ExampleGenerateScaffold emits a complete application skeleton.
func ExampleGenerateScaffold() {
	s, err := gen.GenerateScaffold("example.com/app", "nserver", options.COPSFTP())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("module:", s.Module)
	for _, name := range []string{"go.mod", "hooks.go", "main.go"} {
		_, ok := s.AppFiles[name]
		fmt.Printf("%s: %v\n", name, ok)
	}
	// Output:
	// module: example.com/app
	// go.mod: true
	// hooks.go: true
	// main.go: true
}

// ExampleCountSource measures code distribution the way Tables 3-4 do.
func ExampleCountSource() {
	src := []byte(`package demo

// A type and a method.
type Greeter struct{}

func (Greeter) Hello() string { return "hi" }
`)
	st := gen.CountSource("demo.go", src)
	fmt.Printf("classes=%d methods=%d ncss=%d\n", st.Classes, st.Methods, st.NCSS)
	// Output:
	// classes=1 methods=1 ncss=3
}
