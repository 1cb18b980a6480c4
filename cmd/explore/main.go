// Command explore runs the Bayesian strategy exploration of Sec. III-C:
// it tunes the PUFFER strategy parameters on a small routability-
// challenged design (the paper uses the same approach and applies the
// result to the large benchmarks) and prints the tuned configuration.
//
// Usage:
//
//	explore -design OR1200 -scale 4000 -budget 20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"

	"puffer"
	"puffer/internal/place"
	"puffer/internal/router"
	"puffer/internal/synth"
)

func main() {
	var (
		design  = flag.String("design", "OR1200", "small profile to tune on")
		scale   = flag.Int("scale", 4000, "profile scale divisor (keep it small: every observation is a full place+route)")
		seed    = flag.Int64("seed", 1, "random seed")
		budget  = flag.Int("budget", 15, "evaluations per parameter-exploration call (TC of Algorithm 2)")
		iters   = flag.Int("iters", 250, "max GP iterations per evaluation")
		out     = flag.String("out", "", "write the best-observed strategy as JSON to this file")
		timeout = flag.Duration("timeout", 0, "abort the exploration after this duration, keeping the best strategies found (0 = none)")
	)
	flag.Parse()

	p, err := synth.ProfileByName(*design)
	if err != nil {
		log.Fatal(err)
	}
	d := synth.Generate(p, *scale, *seed)
	s := d.Stats()
	fmt.Printf("tuning on %s at 1:%d (%d cells, %d nets)\n", p.Name, *scale, s.Cells, s.Nets)

	pcfg := place.DefaultConfig()
	pcfg.MaxIters = *iters
	pcfg.Seed = *seed

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	final, best, n, err := puffer.ExploreStrategy(ctx, d, pcfg, puffer.ExploreOptions{
		Budget: *budget,
		Seed:   *seed,
		Logf:   log.Printf,
	})
	if err != nil {
		if !errors.Is(err, puffer.ErrCanceled) {
			log.Fatal(err)
		}
		fmt.Println("exploration timed out; reporting best strategies found so far")
	}

	fmt.Printf("\n%d observations made\n", n)
	report := func(name string, st any) { fmt.Printf("\n%s strategy:\n%+v\n", name, st) }
	report("final (range-median, Algorithm 3)", final)
	report("best observed", best)
	if *out != "" {
		if err := puffer.SaveStrategy(*out, best); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best strategy written to %s\n", *out)
	}

	// Verify the tuned strategy on the tuning design.
	for _, cand := range []struct {
		name string
		run  func() float64
	}{
		{"default", func() float64 {
			dd := d.Clone()
			cfg := puffer.DefaultConfig()
			cfg.Place = pcfg
			if _, err := puffer.Run(dd, cfg); err != nil {
				log.Fatal(err)
			}
			rr := puffer.Evaluate(dd, router.DefaultConfig())
			return rr.HOF + rr.VOF
		}},
		{"tuned(best)", func() float64 {
			dd := d.Clone()
			cfg := puffer.DefaultConfig()
			cfg.Place = pcfg
			cfg.Strategy = best
			cfg.Legal.Theta = best.Theta
			if _, err := puffer.Run(dd, cfg); err != nil {
				log.Fatal(err)
			}
			rr := puffer.Evaluate(dd, router.DefaultConfig())
			return rr.HOF + rr.VOF
		}},
	} {
		fmt.Printf("%-12s total overflow (HOF+VOF) = %.3f%%\n", cand.name, cand.run())
	}
}
