package main

// Codec mode (-codec): benchmarks the encode path and both decode
// engines — the sequential reference Decoder and the parallel Pipeline
// — over the (p, k) grid from DESIGN.md §9 plus the plan the CLI ships
// (GF(2^32), k = 8: m = 32768 at the default 1 MiB), and optionally
// writes the machine-readable report consumed by EXPERIMENTS.md as
// BENCH_rlnc.json. With -before, every cell also carries the MB/s the
// same cell had in an earlier report, so a refresh records before and
// after in one file. The default table mode above is unchanged.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// codecGrid lists the (p, k) cells: the §9 grid, then the default plan.
func codecGrid() [][2]int {
	var grid [][2]int
	for _, bits := range []int{gf.Bits8, gf.Bits16} {
		for _, k := range []int{32, 64, 128} {
			grid = append(grid, [2]int{bits, k})
		}
	}
	return append(grid, [2]int{gf.Bits32, 8})
}

// codecCell is one benchmark measurement: op x field x k at the
// configured generation size.
type codecCell struct {
	Op          string  `json:"op"` // encode | decode-sequential | decode-pipeline
	FieldBits   uint    `json:"p"`
	K           int     `json:"k"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// BeforeMBPerSec is this cell's mb_per_s in the -before report.
	BeforeMBPerSec float64 `json:"before_mb_per_s,omitempty"`
}

// codecReport is the BENCH_rlnc.json schema.
type codecReport struct {
	SizeBytes int         `json:"size_bytes"`
	Reps      int         `json:"reps"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	Cells     []codecCell `json:"cells"`
}

// measure times fn over reps runs after one untimed warmup, reporting
// mean ns/op and per-op heap traffic across every goroutine.
func measure(reps int, fn func()) (nsPerOp float64, bytesPerOp, allocsPerOp int64) {
	fn() // warm caches, lazy hash state, pool buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < reps; r++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(reps)
	bytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(reps)
	allocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(reps)
	return nsPerOp, bytesPerOp, allocsPerOp
}

// codecParams builds the generation geometry for one grid cell.
func codecParams(bits uint, k, size int) (rlnc.Params, error) {
	if size%k != 0 {
		return rlnc.Params{}, fmt.Errorf("size %d not divisible by k=%d", size, k)
	}
	chunkBytes := size / k
	bytesPerSym := int(bits+7) / 8
	if chunkBytes%bytesPerSym != 0 {
		return rlnc.Params{}, fmt.Errorf("chunk %dB not whole GF(2^%d) symbols", chunkBytes, bits)
	}
	return rlnc.NewParams(gf.MustNew(bits), k, chunkBytes/bytesPerSym, size)
}

// cellKey names one cell of the grid.
type cellKey struct {
	op   string
	bits uint
	k    int
}

// loadBefore reads an earlier report's rates, keyed by cell.
func loadBefore(path string) (map[cellKey]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var old codecReport
	if err := json.Unmarshal(blob, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rates := make(map[cellKey]float64, len(old.Cells))
	for _, c := range old.Cells {
		rates[cellKey{c.Op, c.FieldBits, c.K}] = c.MBPerSec
	}
	return rates, nil
}

// runCodec executes the codec benchmark grid, prints a table, and
// writes jsonPath (when non-empty). beforePath, when non-empty, names
// an earlier report to carry forward as each cell's before_mb_per_s; it
// is read up front, so it may be the file jsonPath overwrites.
func runCodec(size, reps int, seed int64, jsonPath, beforePath string, out io.Writer) error {
	var before map[cellKey]float64
	if beforePath != "" {
		var err error
		if before, err = loadBefore(beforePath); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)

	report := codecReport{
		SizeBytes: size,
		Reps:      reps,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	fmt.Fprintf(out, "# RLNC codec engine benchmarks, %d-byte generations (mean of %d)\n", size, reps)
	fmt.Fprintf(out, "%-18s %4s %5s %14s %12s %14s %12s %12s\n",
		"op", "p", "k", "ns/op", "MB/s", "B/op", "allocs/op", "before MB/s")
	mb := float64(size) / (1 << 20)
	for _, cell := range codecGrid() {
		bits, k := uint(cell[0]), cell[1]
		params, err := codecParams(bits, k, size)
		if err != nil {
			return err
		}
		enc, err := rlnc.NewEncoder(params, 1, secret, data)
		if err != nil {
			return err
		}
		// Enough prefabricated messages to reach rank k even if a
		// few derived rows happen to be dependent.
		msgs := make([]*rlnc.Message, k+4)
		for i := range msgs {
			msgs[i] = enc.Message(uint64(i))
		}
		type bench struct {
			op string
			fn func()
		}
		payload := make([]byte, params.ChunkBytes())
		benches := []bench{
			{op: "encode", fn: func() {
				for i := 0; i < k; i++ {
					enc.MessageInto(uint64(i), payload)
				}
			}},
			{op: "decode-sequential", fn: func() {
				dec, err := rlnc.NewDecoder(params, 1, secret, nil)
				if err != nil {
					panic(err)
				}
				for _, msg := range msgs {
					if dec.Done() {
						break
					}
					if _, err := dec.Add(msg); err != nil {
						panic(err)
					}
				}
				if _, err := dec.Decode(); err != nil {
					panic(err)
				}
			}},
		}
		pipe, err := rlnc.NewPipeline(params, 1, secret, nil, rlnc.PipelineConfig{})
		if err != nil {
			return err
		}
		pipeOut := make([]byte, params.DataLen)
		benches = append(benches, bench{op: "decode-pipeline", fn: func() {
			for _, msg := range msgs {
				if pipe.Done() {
					break
				}
				if _, err := pipe.Add(msg); err != nil {
					panic(err)
				}
			}
			if err := pipe.DecodeInto(pipeOut); err != nil {
				panic(err)
			}
			if err := pipe.Retarget(params, 1, nil); err != nil {
				panic(err)
			}
		}})
		for _, b := range benches {
			ns, bytesOp, allocsOp := measure(reps, b.fn)
			cell := codecCell{
				Op:          b.op,
				FieldBits:   bits,
				K:           k,
				NsPerOp:     ns,
				MBPerSec:    mb / (ns / 1e9),
				BytesPerOp:  bytesOp,
				AllocsPerOp: allocsOp,

				BeforeMBPerSec: before[cellKey{b.op, bits, k}],
			}
			report.Cells = append(report.Cells, cell)
			fmt.Fprintf(out, "%-18s %4d %5d %14.0f %12.2f %14d %12d %12.2f\n",
				cell.Op, cell.FieldBits, cell.K, cell.NsPerOp, cell.MBPerSec,
				cell.BytesPerOp, cell.AllocsPerOp, cell.BeforeMBPerSec)
		}
		pipe.Close()
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "# wrote %s\n", jsonPath)
	}
	return nil
}
