package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-side interval around a call into a layer. The
// layer is the name's prefix before the first dot ("core.Run" belongs to
// core); chunk identifies the timed chunk a span belongs to (-1 outside
// the chunks).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Chunk  int    `json:"chunk"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spans records spans in memory; they are written out once, at the end
// of the run. A nil *spans records nothing, so the untraced code paths
// call it unconditionally. It is used from the benchmark's main
// goroutine only.
type spans struct {
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent, chunk int) int {
	if s == nil {
		return -1
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Chunk: chunk, Start: time.Since(s.epoch).Nanoseconds()})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].End = time.Since(s.epoch).Nanoseconds()
}

// do runs fn inside a span.
func (s *spans) do(name string, parent, chunk int, fn func(id int) error) error {
	id := s.begin(name, parent, chunk)
	defer s.end(id)
	return fn(id)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that its child spans
// cover.
func selfTimes(list []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range list {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range list {
		out[s.layer()] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids' intervals covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// printSelfTimes prints the per-layer self-time table.
func printSelfTimes(w io.Writer, list []span) {
	self := selfTimes(list)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "span self time by layer (%d spans):\n", len(list))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-8s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}

// writeSpans writes the stamp and every span as one JSON document.
func writeSpans(path string, st stamp, list []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, list})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
