// Command elink-experiments regenerates the paper's evaluation figures
// (§8) plus the complexity checks and ablations, printing one table per
// figure. EXPERIMENTS.md records the measured shapes next to the paper's.
//
// Figures run concurrently on the shared execution layer (-j bounds the
// workers; figure results are bitwise independent of -j, and each
// figure's output is buffered so tables always print in the order
// below).
//
// Usage:
//
//	elink-experiments                  # quick scale (seconds)
//	elink-experiments -paper           # the paper's scale (minutes)
//	elink-experiments -only fig08,fig13
//	elink-experiments -j 8             # eight-way figure/kernel parallelism
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"elink/internal/experiments"
	"elink/internal/par"
)

func validNames() string {
	names := make([]string, len(experiments.Figures))
	for i, f := range experiments.Figures {
		names[i] = f.Name
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		paper  = flag.Bool("paper", false, "run at the paper's full scale (2500-node Death Valley, 100k readings; takes minutes)")
		only   = flag.String("only", "", "comma-separated figure names to run (default all); names: "+validNames())
		seed   = flag.Int64("seed", 1, "random seed")
		jobs   = flag.Int("j", 0, "worker count for the parallel execution layer and the figure runner (0 = GOMAXPROCS or ELINK_WORKERS); results are identical for every value")
		csvOut = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	if *jobs > 0 {
		par.SetWorkers(*jobs)
	}

	sc := experiments.QuickScale()
	if *paper {
		sc = experiments.DefaultScale()
	}
	sc.Seed = *seed

	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	// Unknown -only names fail fast instead of silently running nothing.
	known := map[string]bool{}
	for _, f := range experiments.Figures {
		known[f.Name] = true
	}
	var unknown []string
	for n := range want {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "elink-experiments: unknown figure(s) %s; valid names: %s\n",
			strings.Join(unknown, ", "), validNames())
		os.Exit(1)
	}

	var selected []experiments.Figure
	for _, f := range experiments.Figures {
		if len(want) > 0 && !want[f.Name] {
			continue
		}
		selected = append(selected, f)
	}

	// Run the selected figures concurrently, buffering each figure's
	// rendered output so tables stream to stdout in registration order
	// the moment their prefix is complete.
	type figResult struct {
		text string
		err  error
	}
	renderOne := func(f experiments.Figure) figResult {
		start := time.Now()
		tbl, err := f.Run(sc)
		if err != nil {
			return figResult{err: fmt.Errorf("%s: %w", f.Name, err)}
		}
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("wall time: %v", time.Since(start).Round(time.Millisecond)))
		var buf bytes.Buffer
		if *csvOut {
			if err := tbl.WriteCSVBlock(&buf); err != nil {
				return figResult{err: fmt.Errorf("%s: %w", f.Name, err)}
			}
		} else {
			tbl.Render(&buf)
		}
		return figResult{text: buf.String()}
	}

	runners := par.Workers()
	if runners > len(selected) {
		runners = len(selected)
	}
	results := make([]figResult, len(selected))
	done := make(chan int, len(selected))
	jobsCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runners; w++ {
		wg.Add(1)
		go func() { //elink:allow godiscipline — figure worker pool streams ordered output as figures finish; par.For would join before printing
			defer wg.Done()
			for i := range jobsCh {
				results[i] = renderOne(selected[i])
				done <- i
			}
		}()
	}
	go func() { //elink:allow godiscipline — feeder goroutine closes the jobs channel after the pool drains; not a fork-join shape
		for i := range selected {
			jobsCh <- i
		}
		close(jobsCh)
		wg.Wait()
		close(done)
	}()

	finished := make([]bool, len(selected))
	next := 0
	failed := false
	for i := range done {
		finished[i] = true
		for next < len(selected) && finished[next] {
			if err := results[next].err; err != nil {
				fmt.Fprintf(os.Stderr, "elink-experiments: %v\n", err)
				failed = true
			} else {
				fmt.Print(results[next].text)
			}
			next++
		}
	}
	if failed {
		os.Exit(1)
	}
}
