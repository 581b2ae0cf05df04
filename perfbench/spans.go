package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"opendwarfs/internal/obs"
)

// span is one finished span of a tracer's JSONL export.
type span struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs"`
}

func (s *span) endNs() int64 { return s.StartNs + s.DurNs }

// readSpans exports a tracer's finished spans.
func readSpans(tr *obs.Tracer) ([]*span, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	var spans []*span
	dec := json.NewDecoder(&buf)
	for {
		s := new(span)
		if err := dec.Decode(s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	name          string
	count         int
	totalNs, self int64
}

// selfTimes sums, per span name, the spans' durations and their self times:
// a span's duration minus the part of it that its children cover. Children
// that run in parallel are counted once where they overlap.
func selfTimes(spans []*span) []layerTime {
	children := map[uint64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		lt.count++
		lt.totalNs += s.DurNs
		lt.self += s.DurNs - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.endNs(), parent.endNs())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

func selfOf(lts []layerTime, name string) (layerTime, bool) {
	for _, lt := range lts {
		if lt.name == name {
			return lt, true
		}
	}
	return layerTime{}, false
}

// prepareWait is the time a traced grid's cells spent waiting for a
// benchmark × size preparation another cell was running: every
// harness.prepare span of a row except the longest, which is the cell that
// ran it.
func prepareWait(spans []*span) (waitNs int64) {
	byID := make(map[uint64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	longest := map[string]int64{}
	for _, s := range spans {
		if s.Name != "harness.prepare" {
			continue
		}
		cell := byID[s.Parent]
		if cell == nil {
			continue
		}
		key := cell.Attrs["benchmark"] + "/" + cell.Attrs["size"]
		longest[key] = max(longest[key], s.DurNs)
		waitNs += s.DurNs
	}
	for _, d := range longest {
		waitNs -= d
	}
	return waitNs
}

// layerTable renders the per-span-name totals as a fixed-width table.
func layerTable(lts []layerTime) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(&b, "%-28s %8d %12.3f %12.3f\n", lt.name, lt.count, float64(lt.totalNs)/1e6, float64(lt.self)/1e6)
	}
	return b.String()
}
