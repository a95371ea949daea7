package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one batch share a trace id.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// A nil recorder records nothing, which is how the untraced pass runs the
// same code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// len is how many spans have been recorded.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, summed per span name, with span counts.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines in dir/name.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
