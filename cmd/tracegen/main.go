// Command tracegen generates workload traces and prints their memory
// characteristics: instruction counts, coalescing divergence, page
// footprints, scratchpad use — the properties that drive the paper's
// observations.
//
// Usage:
//
//	tracegen                    # summarize all 15 workloads
//	tracegen -workload fw -v    # per-kind breakdown for one workload
//	tracegen -workload nw -o nw.ctrace
//
// -o saves chunked (v4) trace files, the format vcsim -tracefile and
// vcache.LoadTrace read. Chunks are written as the generator emits them,
// so peak memory stays bounded by -chunk-budget even at large -scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vcache/internal/trace"
	"vcache/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "single workload to inspect (default: all)")
	scale := flag.Int("scale", 1, "workload input scale factor")
	seed := flag.Uint64("seed", 42, "synthetic input seed")
	cus := flag.Int("cus", 16, "number of compute units")
	warps := flag.Int("warps", 8, "warp contexts per CU")
	verbose := flag.Bool("v", false, "per-CU warp stream lengths (without -o)")
	out := flag.String("o", "", "stream the generated trace(s) as chunked (v4) files to this file (single workload) or directory")
	chunkBudget := flag.Int("chunk-budget", 0, "chunk byte budget for -o (0 = default 4MB)")
	compress := flag.Bool("compress", false, "flate-compress chunk payloads (-o only)")
	flag.Parse()

	p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
	gens := workloads.All()
	if *wl != "" {
		g, ok := workloads.ByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			os.Exit(1)
		}
		gens = []workloads.Generator{g}
	}
	for _, g := range gens {
		if *out != "" {
			// Stream straight to disk: the trace is never materialized, so
			// -scale 100 runs generate in chunk-budget-bounded memory.
			path := *out
			if len(gens) > 1 {
				path = filepath.Join(*out, g.Name+".ctrace")
			}
			if err := saveChunked(g, p, path, *chunkBudget, *compress); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(workloads.Describe(g, p))
		if *verbose {
			dump(g.Build(p))
		}
	}
}

// saveChunked streams one workload into a chunked (v4) trace file and
// prints the same characteristics line Describe would, computed from the
// incremental summary instead of a materialized trace.
func saveChunked(g workloads.Generator, p workloads.Params, path string, budget int, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	chunks := 0
	sum, err := g.BuildChunked(p, f, trace.ChunkOptions{
		Budget:   budget,
		Compress: compress,
		OnChunk:  func(index, storedBytes int) { chunks = index + 1 },
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	fmt.Println(workloads.DescribeSummary(g, sum))
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("    saved %s (%d chunks, %.1fMB)\n", path, chunks, float64(st.Size())/(1<<20))
	return nil
}

func dump(tr *trace.Trace) {
	for ci, cu := range tr.CUs {
		total := 0
		for _, w := range cu.Warps {
			total += len(w)
		}
		fmt.Printf("    cu %2d: %d warp contexts, %d instructions total\n", ci, len(cu.Warps), total)
	}
}
