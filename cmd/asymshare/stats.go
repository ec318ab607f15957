package main

// `asymshare stats` scrapes a node's metrics endpoint (started with
// `serve -metrics`) and renders the exposition as a grouped,
// human-readable table. The parser handles exactly what
// internal/metrics emits: HELP/TYPE comment lines and
// `name{labels} value` samples in Prometheus text format 0.0.4.

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// statsSample is one parsed sample line.
type statsSample struct {
	name   string // full sample name, e.g. peer_served_bytes_total
	labels string // raw {...} content, "" when unlabelled
	value  float64
}

// statsFamily groups samples under one HELP/TYPE header.
type statsFamily struct {
	name    string
	help    string
	typ     string
	samples []statsSample
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "metrics address of a running node")
	filter := fs.String("filter", "", "only show families whose name contains this substring")
	raw := fs.Bool("raw", false, "dump the exposition verbatim instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := "http://" + *addr + "/metrics"
	clientHTTP := &http.Client{Timeout: 10 * time.Second}
	resp, err := clientHTTP.Get(url)
	if err != nil {
		return fmt.Errorf("stats: scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: scrape %s: %s", url, resp.Status)
	}
	if *raw {
		_, err := io.Copy(out, resp.Body)
		return err
	}
	families, err := parseExposition(resp.Body)
	if err != nil {
		return err
	}
	printStats(out, families, *filter)
	return nil
}

// parseExposition reads Prometheus text format into ordered families.
// Samples whose base name (sans _bucket/_sum/_count suffix) matches a
// declared family attach to it; stray samples get an anonymous family.
func parseExposition(r io.Reader) ([]*statsFamily, error) {
	var (
		order []*statsFamily
		byFam = make(map[string]*statsFamily)
	)
	family := func(name string) *statsFamily {
		if f, ok := byFam[name]; ok {
			return f
		}
		f := &statsFamily{name: name}
		byFam[name] = f
		order = append(order, f)
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 {
				continue
			}
			f := family(parts[2])
			if parts[1] == "HELP" && len(parts) == 4 {
				f.help = parts[3]
			} else if parts[1] == "TYPE" && len(parts) == 4 {
				f.typ = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		base := sample.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(sample.name, suffix); trimmed != sample.name {
				if _, ok := byFam[trimmed]; ok {
					base = trimmed
					break
				}
			}
		}
		f := family(base)
		f.samples = append(f.samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return order, nil
}

// parseSampleLine splits `name{labels} value` (labels optional). Label
// values may contain escaped quotes and spaces, so the split scans for
// the closing brace rather than whitespace.
func parseSampleLine(line string) (statsSample, error) {
	var s statsSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		rest = rest[i+1:]
		end := -1
		inQuote := false
		for j := 0; j < len(rest); j++ {
			switch rest[j] {
			case '\\':
				if inQuote {
					j++ // skip escaped char
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, errors.New("unterminated label set: " + line)
		}
		s.labels = rest[:end]
		rest = rest[end+1:]
	} else if i := strings.IndexByte(rest, ' '); i >= 0 {
		s.name = rest[:i]
		rest = rest[i:]
	} else {
		return s, errors.New("malformed sample: " + line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("malformed value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// statsSections titles the known subsystem prefixes, in the order
// DESIGN.md §7 documents them. Families with an unlisted prefix fall
// under their raw prefix so nothing is hidden.
var statsSections = map[string]string{
	"wire":      "wire protocol",
	"peer":      "peer node",
	"client":    "client fetch path",
	"fairshare": "fairness ledger & allocator",
	"audit":     "retention audits",
	"store":     "message store",
	"ratelimit": "upload shaping",
	"tracker":   "tracker discovery",
	"dht":       "DHT discovery",
}

// statsSubSections splits large subsystems on a two-segment prefix —
// longest prefix wins, so fairshare_estimate_* gets its own heading
// while the remaining fairshare_* families stay together.
var statsSubSections = map[string]string{
	"fairshare_estimate": "capacity estimation",
	"fairshare_policy":   "allocation policy",
	"fairshare_ledger":   "bounded ledger",
}

// statsSection maps a family name to its section heading.
func statsSection(name string) string {
	prefix := name
	if i := strings.IndexByte(name, '_'); i > 0 {
		prefix = name[:i]
		if j := strings.IndexByte(name[i+1:], '_'); j > 0 {
			if title, ok := statsSubSections[name[:i+1+j]]; ok {
				return title
			}
		}
	}
	if title, ok := statsSections[prefix]; ok {
		return title
	}
	return prefix
}

// printStats renders families grouped by subsystem prefix.
func printStats(out io.Writer, families []*statsFamily, filter string) {
	shown := 0
	section := ""
	for _, f := range families {
		if filter != "" && !strings.Contains(f.name, filter) {
			continue
		}
		if s := statsSection(f.name); s != section {
			if shown > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprintf(out, "== %s ==\n", s)
			section = s
		}
		shown++
		typ := f.typ
		if typ == "" {
			typ = "untyped"
		}
		fmt.Fprintf(out, "%s (%s)", f.name, typ)
		if f.help != "" {
			fmt.Fprintf(out, " — %s", f.help)
		}
		fmt.Fprintln(out)
		if f.typ == "histogram" {
			printHistogram(out, f)
			continue
		}
		for _, s := range f.samples {
			label := s.labels
			if label == "" {
				label = "-"
			}
			fmt.Fprintf(out, "  %-40s %s\n", label, formatValue(s.value))
		}
	}
	if shown == 0 {
		fmt.Fprintln(out, "no matching metric families")
	}
}

// printHistogram condenses one histogram family to count / sum / mean
// per label set, skipping the bucket lines.
func printHistogram(out io.Writer, f *statsFamily) {
	type agg struct{ count, sum float64 }
	aggs := make(map[string]*agg)
	var order []string
	stripLe := func(labels string) string {
		var kept []string
		for _, part := range strings.Split(labels, ",") {
			if part == "" || strings.HasPrefix(part, "le=") {
				continue
			}
			kept = append(kept, part)
		}
		return strings.Join(kept, ",")
	}
	for _, s := range f.samples {
		key := stripLe(s.labels)
		a, ok := aggs[key]
		if !ok {
			a = &agg{}
			aggs[key] = a
			order = append(order, key)
		}
		switch {
		case strings.HasSuffix(s.name, "_count"):
			a.count = s.value
		case strings.HasSuffix(s.name, "_sum"):
			a.sum = s.value
		}
	}
	sort.Strings(order)
	for _, key := range order {
		a := aggs[key]
		label := key
		if label == "" {
			label = "-"
		}
		mean := 0.0
		if a.count > 0 {
			mean = a.sum / a.count
		}
		fmt.Fprintf(out, "  %-40s count=%s sum=%s mean=%s\n",
			label, formatValue(a.count), formatValue(a.sum), formatValue(mean))
	}
}

// formatValue trims floats to a compact form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
