package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the span that caused this one (0 for an op's root).
// Times are nanoseconds since the tracer was created.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int64  `json:"op"`
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Words and Sends are the communication counted at the same boundary
	// (Stats delta or Ticket.Meters), zero where the layer exposes none.
	Words int64 `json:"words,omitempty"`
	Sends int64 `json:"sends,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer, or
// one switched off, records nothing: begin returns the zero span and end
// ignores it, so the gated run pays two predictable branches per call.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span; the zero span (ID 0) means "not recording".
func (t *tracer) begin(op, parent int64, phase, layer, name string) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	return span{
		ID: t.next.Add(1), Parent: parent, Op: op,
		Workload: t.workload, Phase: phase, Layer: layer, Name: name,
		StartNs: int64(time.Since(t.t0)),
	}
}

func (t *tracer) end(s span) { t.endCounted(s, 0, 0) }

// endCounted closes the span and attaches the communication counted over
// it.
func (t *tracer) endCounted(s span, words, sends int64) {
	if s.ID == 0 {
		return
	}
	s.EndNs = int64(time.Since(t.t0))
	s.Words, s.Sends = words, sends
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines, creating the directory if needed.
func (t *tracer) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

// selfTime is one row of the traced run's summary: the total time of all
// spans with this layer and name, and that total minus the part their
// child spans cover.
type selfTime struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes folds the spans by (layer, name). A span's self time is its
// duration minus the union of the intervals its direct children cover.
func (t *tracer) selfTimes() []selfTime {
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	type key struct{ layer, name string }
	rows := make(map[key]*selfTime)
	for _, s := range t.spans {
		k := key{s.Layer, s.Name}
		r := rows[k]
		if r == nil {
			r = &selfTime{Layer: s.Layer, Name: s.Name}
			rows[k] = r
		}
		total := s.EndNs - s.StartNs
		r.Count++
		r.TotalMs += float64(total) / 1e6
		r.SelfMs += float64(total-covered(children[s.ID], s.StartNs, s.EndNs)) / 1e6
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
