// Command benchrlc measures random-linear-coding performance across
// the (field, message-length) grid of Tables I/II and reports both the
// raw decode seconds and the implied real-time decoding throughput —
// the numbers behind the paper's conclusion that larger fields (fewer
// messages k) decode faster even though each field operation costs
// more (Sec. V-B).
//
// Usage:
//
//	benchrlc [-size bytes] [-seed n] [-repeat n]
//	benchrlc -codec [-size bytes] [-reps n] [-json FILE]
//
// The second form benchmarks the codec engines instead — encode,
// sequential decode, and the parallel pipeline decode — across
// p in {8,16} and k in {32,64,128}, optionally emitting the
// BENCH_rlnc.json report (see codec.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"asymshare/internal/figures"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrlc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchrlc", flag.ContinueOnError)
	size := fs.Int("size", figures.TableDataBytes, "generation size in bytes")
	seed := fs.Int64("seed", 1, "payload seed")
	repeat := fs.Int("repeat", 1, "measurements per cell (best is reported)")
	codec := fs.Bool("codec", false, "benchmark the codec engines (encode, both decoders) instead of the Table I/II grid")
	reps := fs.Int("reps", 5, "codec mode: timed runs per cell after one warmup")
	jsonPath := fs.String("json", "", "codec mode: also write the JSON report here")
	beforePath := fs.String("before", "", "codec mode: carry each cell's MB/s from this earlier report forward as before_mb_per_s")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *size <= 0 || *repeat <= 0 || *reps <= 0 {
		return fmt.Errorf("size, repeat, and reps must be positive")
	}
	if *codec {
		return runCodec(*size, *reps, *seed, *jsonPath, *beforePath, out)
	}

	rng := rand.New(rand.NewSource(*seed))
	data := make([]byte, *size)
	rng.Read(data)
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)

	fmt.Fprintf(out, "# RLNC decode timing for %d bytes (best of %d)\n", *size, *repeat)
	fmt.Fprintf(out, "%-10s %-8s %6s %12s %14s\n", "field", "m", "k", "decode(s)", "thrpt(MB/s)")
	for _, bits := range figures.TableFieldBits {
		field := gf.MustNew(bits)
		for _, m := range figures.TableMessageLens {
			params, err := rlnc.ParamsForSize(field, *size, m)
			if err != nil {
				return err
			}
			best := 0.0
			for r := 0; r < *repeat; r++ {
				secs, err := figures.MeasureDecode(field, m, data, secret)
				if err != nil {
					return err
				}
				if best == 0 || secs < best {
					best = secs
				}
			}
			mbps := float64(*size) / (1 << 20) / best
			fmt.Fprintf(out, "GF(2^%-3d)  2^%-6d %6d %12.4f %14.2f\n",
				bits, log2(m), params.K, best, mbps)
		}
	}
	return nil
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
