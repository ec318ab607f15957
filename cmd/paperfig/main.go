// Command paperfig regenerates every table and figure of the paper's
// evaluation, and the ablations beside them, as TSV on stdout.
//
// Usage:
//
//	paperfig [flags] <target>
//
// Targets:
//
//	fig1 table1 table2 fig5a fig5b fig6 fig7 fig8a fig8b
//	all             the nine above
//	ablation-liar ablation-tft ablation-decay robustness churn quantization
//	ablations       the six above
//
// Flags:
//
//	-slots N        override simulated seconds for fig5a/fig5b/fig8a/fig8b,
//	                ablation-*, churn and quantization
//	-slots-per-hour N  time resolution for fig6/fig7 (default 3600)
//	-seed N         RNG seed for table2, fig6/fig7, robustness and churn
//	-quick          shrink every experiment for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asymshare/internal/figures"
	"asymshare/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperfig:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperfig", flag.ContinueOnError)
	slots := fs.Int("slots", 0, "simulated seconds (0 = paper default)")
	slotsPerHour := fs.Int("slots-per-hour", 3600, "slots per hour for fig6/fig7")
	seed := fs.Int64("seed", 2006, "seed for randomized workloads")
	quick := fs.Bool("quick", false, "shrink experiments for a fast run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one target, got %d (try 'all')", fs.NArg())
	}
	target := fs.Arg(0)
	if *quick {
		if *slots == 0 {
			*slots = 1200
		}
		*slotsPerHour = 300
	}

	targets := []string{target}
	switch target {
	case "all":
		targets = []string{"fig1", "table1", "table2", "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b"}
	case "ablations":
		targets = []string{"ablation-liar", "ablation-tft", "ablation-decay", "robustness", "churn", "quantization"}
	}
	for i, tg := range targets {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := emit(out, tg, *slots, *slotsPerHour, *seed, *quick); err != nil {
			return fmt.Errorf("%s: %w", tg, err)
		}
	}
	return nil
}

func emit(out io.Writer, target string, slots, slotsPerHour int, seed int64, quick bool) error {
	switch target {
	case "fig1":
		up, down := figures.Fig1Headline()
		fig := figures.Fig1()
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		_, err := fmt.Fprintf(out, "# headline: 1h mpeg2 home video (~1GB): upload %.1f h vs download %.0f min\n",
			up, down*60)
		return err
	case "table1":
		return figures.Table1().Write(out)
	case "table2":
		opts := figures.Table2Options{Seed: seed}
		if quick {
			opts.DataBytes = 256 << 10
		}
		tbl, err := figures.Table2(opts)
		if err != nil {
			return err
		}
		return tbl.Write(out)
	case "fig5a":
		fig, res, err := figures.Fig5a(slots)
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		return summarizeFinal(out, res)
	case "fig5b":
		fig, res, err := figures.Fig5b(slots)
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		return summarizeFinal(out, res)
	case "fig6", "fig7":
		opts := figures.HomeVideoOptions{SlotsPerHour: slotsPerHour, Seed: seed}
		if target == "fig7" {
			opts.Peer1StartHour = 3
		}
		fig, _, gains, err := figures.HomeVideo(opts)
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		for i, g := range gains {
			if _, err := fmt.Fprintf(out, "# peer%d mean gain over isolation while requesting: %+.1f kbps\n", i, g); err != nil {
				return err
			}
		}
		return nil
	case "fig8a":
		fig, res, err := figures.Fig8a(slots)
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		saver := res.MeanDownload(0, 1000, 1300)
		late := res.MeanDownload(1, 1000, 1300)
		_, err = fmt.Fprintf(out, "# post-join window: early contributor %.0f kbps vs late joiner %.0f kbps\n", saver, late)
		return err
	case "fig8b":
		fig, res, err := figures.Fig8b(figures.Fig8bOptions{Slots: slots})
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(out); err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "# peer0 rate: before %.0f / during drop %.0f / after recovery %.0f kbps\n",
			res.MeanDownload(0, 800, 1000),
			res.MeanDownload(0, 2700, 3000),
			res.MeanDownload(0, res.Slots()-300, res.Slots()))
		return err
	case "quantization":
		sizes := []float64{64, 256, 1024, 4096, 16384}
		if quick {
			sizes = []float64{64, 4096}
		}
		tbl, err := figures.Quantization(slots, sizes)
		if err != nil {
			return err
		}
		return tbl.Write(out)
	case "churn":
		sessions := []float64{100, 400, 1600, 6400}
		if quick {
			sessions = []float64{100, 1600}
		}
		tbl, err := figures.ChurnSweep(slots, 8, sessions, seed)
		if err != nil {
			return err
		}
		return tbl.Write(out)
	case "robustness":
		tbl, err := figures.Robustness(figures.RobustnessOptions{Seed: seed})
		if err != nil {
			return err
		}
		return tbl.Write(out)
	case "ablation-liar":
		res, err := figures.LiarAblation(slots)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "# ablation-liar: free-rider declaring 1e6 kbps\n"+
			"liar under Eq.3 (declared):  %8.1f kbps\n"+
			"liar under Eq.2 (measured):  %8.1f kbps\n"+
			"honest under Eq.2:           %8.1f kbps\n",
			res.LiarRateEq3, res.LiarRateEq2, res.HonestRateEq2)
		return err
	case "ablation-tft":
		res, err := figures.TitForTatAblation(slots)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "# ablation-tft: Eq.2 vs top-2 tit-for-tat, saturated 100/300/600/1000 kbps\n"+
			"Jain(download/upload) Eq.2: %.4f\n"+
			"Jain(download/upload) TFT:  %.4f\n", res.JainEq2, res.JainTFT); err != nil {
			return err
		}
		for i, u := range res.Uploads {
			if _, err := fmt.Fprintf(out, "TFT peer%d: upload %.0f -> download %.0f kbps\n",
				i, u, res.DownloadsTFT[i]); err != nil {
				return err
			}
		}
		return nil
	case "ablation-decay":
		res, err := figures.DecayAblation(slots, 0)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "# ablation-decay: post-drop rate of the degraded peer\n"+
			"cumulative ledger: %8.1f kbps\n"+
			"decaying  ledger (%.3f/slot): %8.1f kbps (faster adaptation)\n",
			res.RateCumulative, res.Decay, res.RateDecayed)
		return err
	default:
		return fmt.Errorf("unknown target %q", target)
	}
}

func summarizeFinal(out io.Writer, res *sim.Result) error {
	n := res.Slots()
	window := n / 10
	if window < 1 {
		window = 1
	}
	for i, name := range res.Names {
		if _, err := fmt.Fprintf(out, "# %s steady-state download: %.1f kbps\n",
			name, res.MeanDownload(i, n-window, n)); err != nil {
			return err
		}
	}
	return nil
}
