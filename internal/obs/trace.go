package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"summitscale/internal/units"
)

// Arg is one key/value annotation on a span or event. Values are either a
// number or a string; Num and Str are the constructors.
type Arg struct {
	Key string
	Num float64
	Str string
	str bool
}

// Num makes a numeric argument.
func Num(key string, v float64) Arg { return Arg{Key: key, Num: v} }

// Str makes a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Str: v, str: true} }

// record is one trace entry. Spans have dur >= 0 and instant == false;
// events have instant == true. Times are simulated seconds.
type record struct {
	track   string
	cat     string
	name    string
	start   float64
	dur     float64
	instant bool
	args    []Arg
}

// Tracer collects spans and instant events stamped with *simulated* times.
// It is safe for concurrent use and safe on a nil receiver. Renderers sort
// records by full content before formatting, so two runs that emit the
// same multiset of records — regardless of goroutine interleaving — render
// byte-identical output.
type Tracer struct {
	mu   sync.Mutex
	recs []record
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span records a completed span: it started at start on the simulated
// clock and lasted dur. Zero-duration spans are kept (they mark phases
// that the model resolved to zero cost). The record holds a copy of args,
// so the caller's slice never escapes.
func (t *Tracer) Span(track, cat, name string, start, dur units.Seconds, args ...Arg) {
	if t == nil {
		return
	}
	t.add(record{track: track, cat: cat, name: name,
		start: float64(start), dur: float64(dur), args: append([]Arg(nil), args...)})
}

// Event records an instant event at simulated time at, copying args like
// Span.
func (t *Tracer) Event(track, cat, name string, at units.Seconds, args ...Arg) {
	if t == nil {
		return
	}
	t.add(record{track: track, cat: cat, name: name,
		start: float64(at), instant: true, args: append([]Arg(nil), args...)})
}

func (t *Tracer) add(r record) {
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

// Len reports how many records have been collected.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// snapshot returns a content-sorted copy of the records. Sorting by the
// full record content (not just time) makes the order a function of the
// multiset of records alone: identical records are interchangeable, so any
// stable ordering of them yields identical bytes.
func (t *Tracer) snapshot() []record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := append([]record(nil), t.recs...)
	t.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.dur != b.dur {
			return a.dur > b.dur // longer span first: parents before children
		}
		if a.instant != b.instant {
			return !a.instant // spans before instants at the same stamp
		}
		if a.cat != b.cat {
			return a.cat < b.cat
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return argsKey(a.args) < argsKey(b.args)
	})
	return recs
}

// argsKey flattens args into a comparable string for the record sort.
func argsKey(args []Arg) string {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(a.Key)
		b.WriteByte('=')
		if a.str {
			b.WriteString(a.Str)
		} else {
			b.WriteString(formatNum(a.Num))
		}
		b.WriteByte(';')
	}
	return b.String()
}

// formatNum renders a float with the shortest round-trip representation —
// stable across platforms for the same bit pattern.
func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// micros converts simulated seconds to the integer microseconds Chrome's
// trace viewer expects. Rounding to integer µs also keeps the JSON free of
// long float tails.
func micros(sec float64) int64 {
	return int64(sec*1e6 + 0.5)
}

// ChromeTrace renders the records as Chrome trace-event JSON (the
// chrome://tracing / Perfetto "JSON Object Format"): one "X" complete
// event per span, one "i" instant event per event, plus "M" thread_name
// metadata naming each track. Tracks map to tids in sorted-name order.
// The output is byte-deterministic for a given multiset of records.
func (t *Tracer) ChromeTrace() []byte {
	recs := t.snapshot()

	tracks := make([]string, 0, 8)
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.track] {
			seen[r.track] = true
			tracks = append(tracks, r.track)
		}
	}
	sort.Strings(tracks)
	tid := make(map[string]int, len(tracks))
	for i, tr := range tracks {
		tid[tr] = i + 1
	}

	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, tr := range tracks {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tid[tr], quoteJSON(tr)))
	}
	for _, r := range recs {
		var line strings.Builder
		if r.instant {
			fmt.Fprintf(&line, `{"ph":"i","pid":1,"tid":%d,"ts":%d,"s":"t","cat":%s,"name":%s`,
				tid[r.track], micros(r.start), quoteJSON(r.cat), quoteJSON(r.name))
		} else {
			fmt.Fprintf(&line, `{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"cat":%s,"name":%s`,
				tid[r.track], micros(r.start), micros(r.dur), quoteJSON(r.cat), quoteJSON(r.name))
		}
		if len(r.args) > 0 {
			line.WriteString(`,"args":{`)
			for i, a := range r.args {
				if i > 0 {
					line.WriteByte(',')
				}
				line.WriteString(quoteJSON(a.Key))
				line.WriteByte(':')
				if a.str {
					line.WriteString(quoteJSON(a.Str))
				} else {
					line.WriteString(formatNum(a.Num))
				}
			}
			line.WriteByte('}')
		}
		line.WriteByte('}')
		emit(line.String())
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return []byte(b.String())
}

// quoteJSON escapes a string as a JSON string literal. The simulators only
// emit printable ASCII names, but escape defensively anyway.
func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Summary renders an aligned per-(category, name) aggregation of span
// counts and total durations, sorted by name — the text companion to
// ChromeTrace, also byte-deterministic.
func (t *Tracer) Summary() string {
	recs := t.snapshot()
	if len(recs) == 0 {
		return "(no trace records)\n"
	}
	type key struct{ cat, name string }
	type agg struct {
		spans  int
		events int
		total  float64 // integer-µs total, so sum order cannot matter
	}
	aggs := map[key]*agg{}
	keys := []key{}
	for _, r := range recs {
		k := key{r.cat, r.name}
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
			keys = append(keys, k)
		}
		if r.instant {
			a.events++
		} else {
			a.spans++
			a.total += float64(micros(r.dur)) / 1e6
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cat != keys[j].cat {
			return keys[i].cat < keys[j].cat
		}
		return keys[i].name < keys[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-34s %8s %8s %14s\n",
		"category", "name", "spans", "events", "total_s")
	for _, k := range keys {
		a := aggs[k]
		fmt.Fprintf(&b, "%-14s %-34s %8d %8d %14.6f\n",
			k.cat, k.name, a.spans, a.events, a.total)
	}
	return b.String()
}
