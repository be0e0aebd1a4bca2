package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); Track separates
// concurrent actors (client goroutines) in the Chrome trace.
type span struct {
	Name   string
	Parent int
	Track  int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so one code path serves the traced and the
// untraced pass.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Track: track, Start: now, End: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// rename replaces a span's name once the outcome that names it is
// known (a request's source arrives with its reply).
func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time (duration
// minus the part of it that child spans cover) and the span count.
// Children of one parent on one track do not overlap here, so covered
// time is the plain sum of their durations.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Track == spans[s.Parent].Track {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - covered[i]
		count[s.Name]++
	}
	return self, count
}

// writeSelfTable prints the per-name self-time table, largest first.
func writeSelfTable(w io.Writer, title string, spans []span) {
	self, count := selfTimes(spans)
	var total time.Duration
	names := make([]string, 0, len(self))
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "self time by span, %s (%d spans, %.3f s):\n", title, len(spans), total.Seconds())
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[n]) / float64(total)
		}
		fmt.Fprintf(w, "  %-20s %10.4f s %6.2f %% %8d spans\n", n, self[n].Seconds(), share, count[n])
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (complete "X" events, microsecond timestamps), loadable in Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
