// Command nsgen is the N-Server generative design pattern template: the
// CO2P3S equivalent for Go. It reads an option assignment (a preset or a
// JSON configuration), generates the specialized server framework, and
// writes it as a standalone Go package.
//
// Usage:
//
//	nsgen -preset copshttp -out ./generated
//	nsgen -config options.json -pkg myserver -out ./myserver
//	nsgen -preset copsftp -stats
//	nsgen -preset copshttp -scaffold -module example.com/myapp -out ./myapp
//	nsgen -emit-config copshttp   # print a starting configuration
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/options"
)

func main() {
	var (
		preset     = flag.String("preset", "", "option preset: copshttp, copsftp, copshttp-sched, copshttp-overload")
		configPath = flag.String("config", "", "JSON option configuration file (overrides -preset)")
		pkg        = flag.String("pkg", "nserver", "generated package name")
		out        = flag.String("out", "", "output directory (omit to list files only)")
		stats      = flag.Bool("stats", false, "print the generated code distribution (Table 3/4 row)")
		scaffold   = flag.Bool("scaffold", false, "also generate the application skeleton (hooks.go, main.go, go.mod)")
		module     = flag.String("module", "app", "module path for -scaffold")
		emitConfig = flag.String("emit-config", "", "print the JSON configuration for a preset and exit")
		largeFile  = flag.Int64("large-file", 0, "weave the large-file streaming crosscut with this byte threshold; 0 omits it")
		shards     = flag.Int("shards", 0, "weave the multi-reactor sharding crosscut with this many shards; 0 or 1 omits it")
	)
	flag.Parse()

	if *emitConfig != "" {
		opts, err := lookupPreset(*emitConfig)
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(opts, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	var opts options.Options
	switch {
	case *configPath != "":
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &opts); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *configPath, err))
		}
	case *preset != "":
		p, err := lookupPreset(*preset)
		if err != nil {
			fatal(err)
		}
		opts = p
	default:
		fmt.Fprintln(os.Stderr, "nsgen: need -preset or -config (see -help)")
		os.Exit(2)
	}
	if *largeFile > 0 {
		opts = opts.WithLargeFiles(*largeFile)
	}
	if *shards > 0 {
		opts = opts.WithShards(*shards)
	}

	if *scaffold {
		sc, err := gen.GenerateScaffold(*module, *pkg, opts)
		if err != nil {
			fatal(err)
		}
		if *out == "" {
			fatal(fmt.Errorf("-scaffold requires -out"))
		}
		if err := sc.WriteTo(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("generated application %s in %s:\n", sc.Module, *out)
		fmt.Printf("  %s/           the generated framework (do not edit)\n", sc.Framework.Package)
		fmt.Println("  hooks.go          your application hook methods (edit these)")
		fmt.Println("  main.go           assembly and startup")
		fmt.Printf("build it with: cd %s && go build .\n", *out)
		return
	}

	artifact, err := gen.Generate(*pkg, opts)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := artifact.WriteTo(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("generated package %s in %s:\n", artifact.Package, *out)
	} else {
		fmt.Printf("generated package %s (dry run):\n", artifact.Package)
	}
	for _, name := range artifact.FileNames() {
		st := gen.CountSource(name, artifact.Files[name])
		fmt.Printf("  %-16s %5d NCSS, %2d types, %2d funcs\n", name, st.NCSS, st.Classes, st.Methods)
	}
	if *stats {
		st := artifact.Stats()
		fmt.Printf("total: %d classes, %d methods, %d NCSS\n", st.Classes, st.Methods, st.NCSS)
	}
}

func lookupPreset(name string) (options.Options, error) {
	switch name {
	case "copshttp":
		return options.COPSHTTP(), nil
	case "copsftp":
		return options.COPSFTP(), nil
	case "copshttp-sched":
		return options.COPSHTTP().WithScheduling(1, 8), nil
	case "copshttp-overload":
		return options.COPSHTTP().WithOverloadControl(20, 5), nil
	}
	return options.Options{}, fmt.Errorf("nsgen: unknown preset %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsgen:", err)
	os.Exit(1)
}
