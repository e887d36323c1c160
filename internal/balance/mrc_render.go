// Text rendering of miss-ratio-curve results, shared by bwsim and
// bwopt: the ASCII capacity/demand curve (with optional
// before/after-optimization overlay), the measured machine's knee
// table, and the phase timeline.
package balance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/report"
)

// mrcDemandSeries projects the memory-facing level's curve onto
// (capacity, bytes-per-flop demand) samples; with zero flops it falls
// back to raw traffic bytes.
func mrcDemandSeries(label string, marker rune, m *MRCResult) report.CurveSeries {
	s := report.CurveSeries{Label: label, Marker: marker}
	lv := m.MemLevel()
	if lv == nil {
		return s
	}
	for _, p := range lv.Points {
		y := float64(p.TrafficBytes)
		if m.Flops > 0 {
			y /= float64(m.Flops)
		}
		s.Points = append(s.Points, report.CurveXY{X: p.CapacityBytes, Y: y})
	}
	return s
}

// MRCCurveText renders the memory-channel demand curve (bytes per
// flop as a function of fast-memory capacity, log x). after may be
// nil for a single-program plot.
func MRCCurveText(before, after *MRCResult) string {
	unit := "B/flop of memory-channel demand"
	if before.Flops == 0 {
		unit = "memory-channel bytes"
	}
	series := []report.CurveSeries{mrcDemandSeries("original", 'o', before)}
	if after != nil {
		series = append(series, mrcDemandSeries("optimized", 'x', after))
	}
	lv := before.MemLevel()
	title := fmt.Sprintf("miss-ratio curve: %s level %s (%d sets x %dB lines, ways swept)",
		before.Machine, lv.Name, lv.Sets, lv.LineSize)
	return report.Curve(title, unit, series, 64, 12)
}

// MRCKneeTable tabulates the capacity knee — the smallest fast
// memory at which the kernel's demand meets the measured machine's
// balance — in one row. With after non-nil the table shows the
// optimized column and the shift, proving (or disproving) that the
// optimizer moved the knee left.
func MRCKneeTable(before, after *MRCResult) *report.Table {
	t := &report.Table{Title: "capacity knee: smallest fast memory meeting the measured machine's balance"}
	t.Headers = []string{"machine", "balance B/F", "floor B/F", "knee"}
	if after != nil {
		t.Headers = append(t.Headers, "knee after", "shift")
	}
	for i := range before.Knees {
		k := &before.Knees[i]
		row := []any{k.Machine, report.F(k.MachineBalance, 3), report.F(k.FloorBF, 3), kneeCell(k)}
		if after != nil {
			ka := after.Knee(k.Machine)
			row = append(row, kneeCell(ka), KneeShift(k, ka))
		}
		t.AddRow(row...)
	}
	t.AddNote("knee capacity is in the machine's own geometry (sets x line fixed, ways swept)")
	t.AddNote("floor = compulsory bytes per flop once the working set fits; 'never' = floor above the machine's balance")
	return t
}

func kneeCell(k *MRCKnee) string {
	if k == nil {
		return "n/a"
	}
	if !k.Met {
		return "never"
	}
	return report.Bytes(k.KneeBytes)
}

// KneeShift summarizes the optimizer's effect on one machine's knee:
// how far left (or right) it moved, or whether it became met or
// regressed. A nil after reads "n/a".
func KneeShift(before, after *MRCKnee) string {
	switch {
	case after == nil:
		return "n/a"
	case !before.Met && after.Met:
		return "now met"
	case before.Met && !after.Met:
		return "regressed"
	case !before.Met && !after.Met:
		return "-"
	case after.KneeBytes < before.KneeBytes:
		return fmt.Sprintf("left %s", report.Bytes(before.KneeBytes-after.KneeBytes))
	case after.KneeBytes > before.KneeBytes:
		return fmt.Sprintf("right %s", report.Bytes(after.KneeBytes-before.KneeBytes))
	default:
		return "="
	}
}

// MRCTimelineTable renders the phase timeline: per-epoch traffic,
// flops, working set and the dominant array, with a '#' bar profiling
// the memory-channel bytes over time.
func MRCTimelineTable(m *MRCResult) *report.Table {
	t := &report.Table{
		Title:   "phase timeline (access stream in epochs)",
		Headers: []string{"epoch", "steps", "reg bytes", "mem bytes", "flops", "ws", "top array", "mem profile"},
	}
	var maxMem int64
	for _, ep := range m.Timeline {
		if ep.MemBytes > maxMem {
			maxMem = ep.MemBytes
		}
	}
	for _, ep := range m.Timeline {
		t.AddRow(
			fmt.Sprint(ep.Index),
			fmt.Sprint(ep.Steps),
			report.Bytes(ep.ProcBytes),
			report.Bytes(ep.MemBytes),
			fmt.Sprint(ep.Flops),
			report.Bytes(ep.WSBytes),
			topArray(ep.ArrayMemBytes),
			report.Bar(ep.MemBytes, maxMem, 16),
		)
	}
	t.AddNote("ws = distinct data touched in the epoch (exact, %dB-line granularity)", memLineSize(m))
	return t
}

func memLineSize(m *MRCResult) int {
	if lv := m.MemLevel(); lv != nil {
		return lv.LineSize
	}
	return 0
}

// topArray names the array moving the most memory bytes in an epoch.
func topArray(byArray map[string]int64) string {
	if len(byArray) == 0 {
		return "-"
	}
	names := make([]string, 0, len(byArray))
	for n := range byArray {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if byArray[names[i]] != byArray[names[j]] {
			return byArray[names[i]] > byArray[names[j]]
		}
		return names[i] < names[j]
	})
	var total int64
	for _, v := range byArray {
		total += v
	}
	share := ""
	if total > 0 {
		share = fmt.Sprintf(" (%d%%)", 100*byArray[names[0]]/total)
	}
	return names[0] + share
}

// MRCText is the full text block bwsim/bwopt print under -mrc.
func MRCText(before, after *MRCResult) string {
	var b strings.Builder
	b.WriteString(MRCCurveText(before, after))
	b.WriteString(MRCKneeTable(before, after).String())
	b.WriteString(MRCTimelineTable(before).String())
	return b.String()
}
