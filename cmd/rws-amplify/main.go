// Command rws-amplify emits deterministic, seeded synthetic Related
// Website Sets lists at scales the real list never reaches, shaped by
// the embedded snapshot's empirical composition — the scale substrate
// for benchmarking and stress-testing the serve plane at 10⁴–10⁶ sets.
//
// Usage:
//
//	rws-amplify -sets N [-seed 1] [-o FILE | -hash | -stats | -build]
//	            [-validate]
//
// By default the list is written to stdout (or -o FILE) as upstream
// related_website_sets.JSON, directly servable by rws-serve -list.
// The non-emitting modes avoid materialising hundreds of megabytes of
// JSON at the million-set tier; at most one of them is given, and never
// with -o:
//
//	-hash      print "sets seed hash" and emit no JSON (the determinism
//	           artifact CI uploads: same seed ⇒ same hash, always)
//	-stats     print composition statistics instead of JSON
//	-validate  run the structural submission checks over every generated
//	           set; any issue fails the run
//	-build     build a serve snapshot from the generated list (one
//	           serial pass over its sets) and report its build time and
//	           heap_delta_bytes, the heap the snapshot keeps after a GC,
//	           instead of emitting JSON
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/psl"
	"rwskit/internal/serve"
	"rwskit/internal/validate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rws-amplify:", err)
		os.Exit(1)
	}
}

type config struct {
	sets     int
	seed     int64
	out      string
	hashOnly bool
	stats    bool
	validate bool
	build    bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("rws-amplify", flag.ContinueOnError)
	sets := fs.Int("sets", 0, "number of sets to generate (required)")
	seed := fs.Int64("seed", 1, "generation seed (same seed reproduces the same list)")
	out := fs.String("o", "", "write the list JSON to this file (default stdout)")
	hash := fs.Bool("hash", false, "print \"sets seed hash\" instead of emitting JSON")
	stats := fs.Bool("stats", false, "print composition statistics instead of emitting JSON")
	val := fs.Bool("validate", false, "run structural submission checks over every set; issues fail the run")
	build := fs.Bool("build", false, "build a serve snapshot and report build time/memory instead of emitting JSON")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("usage: rws-amplify -sets N [-seed S] [-o FILE | -hash | -stats | -build] [-validate]")
	}
	if *sets < 1 {
		return config{}, fmt.Errorf("-sets must be >= 1")
	}
	modes := 0
	for _, on := range []bool{*out != "", *hash, *stats, *build} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return config{}, fmt.Errorf("-o, -hash, -stats and -build exclude each other")
	}
	return config{
		sets: *sets, seed: *seed, out: *out, hashOnly: *hash, stats: *stats,
		validate: *val, build: *build,
	}, nil
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	genStart := time.Now()
	list, err := amplify.Generate(amplify.Config{Sets: cfg.sets, Seed: cfg.seed})
	if err != nil {
		return err
	}
	genElapsed := time.Since(genStart)

	if cfg.validate {
		v := validate.New(psl.Default(), nil, nil)
		ctx := context.Background()
		issues := 0
		for _, s := range list.Sets() {
			rep := v.ValidateSet(ctx, s)
			for _, issue := range rep.Issues {
				fmt.Fprintf(os.Stderr, "rws-amplify: %s: %s\n", s.Primary, issue)
				issues++
			}
		}
		if issues > 0 {
			return fmt.Errorf("%d validation issue(s) across %d sets", issues, list.NumSets())
		}
		fmt.Fprintf(os.Stderr, "rws-amplify: all %d sets pass structural validation\n", list.NumSets())
	}

	switch {
	case cfg.hashOnly:
		fmt.Fprintf(stdout, "%d %d %s\n", cfg.sets, cfg.seed, list.Hash())
		return nil
	case cfg.stats:
		st := list.Stats()
		fmt.Fprintf(stdout, "sets                 %d\n", st.Sets)
		fmt.Fprintf(stdout, "sites                %d\n", list.NumSites())
		fmt.Fprintf(stdout, "associated           %d (%.1f%% of sets, mean %.2f/set)\n",
			st.AssociatedSites, 100*st.FracSetsWithAssociated(), st.MeanAssociatedPerSet)
		fmt.Fprintf(stdout, "service              %d (%.1f%% of sets)\n", st.ServiceSites, 100*st.FracSetsWithService())
		fmt.Fprintf(stdout, "cctld                %d (%.1f%% of sets)\n", st.CCTLDSites, 100*st.FracSetsWithCCTLD())
		fmt.Fprintf(stdout, "generate_time        %s\n", genElapsed.Round(time.Millisecond))
		fmt.Fprintf(stdout, "hash                 %s\n", list.Hash())
		return nil
	case cfg.build:
		var before runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		snap, err := serve.BuildSnapshot(list)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// Collect the build's garbage first, so the delta is the heap
		// the snapshot retains.
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(snap)
		fmt.Fprintf(stdout, "sets                 %d\n", snap.NumSets())
		fmt.Fprintf(stdout, "sites                %d\n", snap.NumSites())
		fmt.Fprintf(stdout, "generate_time        %s\n", genElapsed.Round(time.Millisecond))
		fmt.Fprintf(stdout, "build_time           %s\n", elapsed.Round(time.Millisecond))
		fmt.Fprintf(stdout, "heap_delta_bytes     %d\n", int64(after.HeapAlloc)-int64(before.HeapAlloc))
		return nil
	}

	raw, err := list.MarshalJSONIndent()
	if err != nil {
		return err
	}
	w := stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		w = bw
	}
	if _, err := w.Write(raw); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}
