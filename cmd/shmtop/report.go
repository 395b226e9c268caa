package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/trace"
)

// decodeEvents parses a /debug/events JSON payload.
func decodeEvents(body []byte) ([]scrapedEvent, error) {
	var evs []scrapedEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		return nil, fmt.Errorf("decode /debug/events: %w", err)
	}
	return evs, nil
}

// report is the snapshot document: one scrape of the whole fleet plus the
// merged cross-node trace summary.
type report struct {
	TakenAt time.Time    `json:"taken_at"`
	Nodes   []nodeStatus `json:"nodes"`
	// MergedSpans counts the duration events in the offset-corrected fleet
	// trace; CrossNodeChains counts parent→child span links that cross
	// process boundaries within one trace ID — the proof that wire-level
	// propagation stitched a client push to its server-side handling.
	MergedSpans     int `json:"merged_spans"`
	CrossNodeChains int `json:"cross_node_chains"`
}

// collect scrapes every node and best-effort merges their traces into one
// fleet timeline, each node's spans shifted by its estimated clock offset.
func collect(s *scraper, specs []nodeSpec) (report, []telemetry.TraceEvent) {
	rep := report{TakenAt: time.Now()}
	var nodes []telemetry.NodeTrace
	for _, spec := range specs {
		st := s.scrape(spec)
		rep.Nodes = append(rep.Nodes, st)
		if evs, err := s.trace(spec.Addr); err == nil && len(evs) > 0 {
			nodes = append(nodes, telemetry.NodeTrace{
				Name:            st.Name,
				Events:          evs,
				ClockOffsetNano: st.ClockOffsetNano,
			})
		}
	}
	merged := telemetry.MergeTraces(nodes)
	for _, ev := range merged {
		if ev.Ph == "X" {
			rep.MergedSpans++
		}
	}
	rep.CrossNodeChains = telemetry.CrossNodeChains(merged)
	return rep, merged
}

// health renders the HEALTH cell.
func health(st nodeStatus) string {
	if st.Healthy {
		return "up"
	}
	return "DOWN"
}

// offsetCell renders the clock offset, or "-" for nodes without the gauge.
func offsetCell(st nodeStatus) string {
	if !st.HasClock {
		return "-"
	}
	return time.Duration(st.ClockOffsetNano).String()
}

// quantileCell renders a latency quantile ("-" when the histogram is
// absent). Sub-millisecond values keep Duration precision — an in-memory
// accumulate sits well under the 0.1 ms the Ms rendering would round to 0.
func quantileCell(v float64) string {
	if v == 0 {
		return "-"
	}
	d := time.Duration(v * float64(time.Second))
	if d < time.Millisecond {
		return d.String()
	}
	return trace.Ms(d)
}

// writeTable renders the fleet as the live-mode table.
func writeTable(w io.Writer, rep report) error {
	tbl := trace.New(fmt.Sprintf("shmtop — %d nodes @ %s",
		len(rep.Nodes), rep.TakenAt.Format("15:04:05")),
		"NODE", "ROLE", "HEALTH", "OFFSET", "CONNS", "ERRS",
		"ACCUM", "ITERS", "PUSHES", "ACC P50", "ACC P99", "EVENTS")
	for _, st := range rep.Nodes {
		events := trace.Itoa(st.Events)
		if st.LastEvent != "" {
			events += " (" + st.LastEvent + ")"
		}
		tbl.Add(st.Name, st.Role, health(st), offsetCell(st),
			trace.Itoa(int(st.Connections)), trace.Itoa(int(st.ConnErrors)),
			trace.Itoa(int(st.Accumulates)), trace.Itoa(int(st.Iterations)),
			trace.Itoa(int(st.Pushes)),
			quantileCell(st.AccP50), quantileCell(st.AccP99), events)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	// Live mode skips trace fetching, so only report the merge when one ran.
	if rep.MergedSpans == 0 && rep.CrossNodeChains == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "merged trace: %d spans, %d cross-node chains\n",
		rep.MergedSpans, rep.CrossNodeChains)
	return err
}

// writeJSONReport emits the snapshot as indented JSON.
func writeJSONReport(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeMarkdownReport emits the snapshot as a Markdown fleet report.
func writeMarkdownReport(w io.Writer, rep report) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# shmtop fleet snapshot\n\nTaken: %s\n\n",
		rep.TakenAt.UTC().Format(time.RFC3339))
	b.WriteString("| Node | Role | Health | Offset | Conns | Errs | Accum | Iters | Pushes | Acc p50 | Acc p99 | Events |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, st := range rep.Nodes {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %d | %d | %d | %d | %s | %s | %d |\n",
			st.Name, st.Role, health(st), offsetCell(st),
			st.Connections, st.ConnErrors, st.Accumulates,
			st.Iterations, st.Pushes,
			quantileCell(st.AccP50), quantileCell(st.AccP99), st.Events)
	}
	fmt.Fprintf(&b, "\nMerged trace: **%d** spans, **%d** cross-node chains.\n",
		rep.MergedSpans, rep.CrossNodeChains)
	for _, st := range rep.Nodes {
		if st.Err != "" {
			fmt.Fprintf(&b, "\n- `%s` error: %s\n", st.Name, st.Err)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
