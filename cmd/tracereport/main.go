// Command tracereport analyzes a recorded solve trace offline: the JSONL
// stream written by `hyqsat -trace` (or a flight-recorder dump from
// /trace/flight) is parsed back into events, demultiplexed by solve id and
// event source, and rendered as per-solve / per-source reports.
//
// Usage:
//
//	tracereport [-json] [-calls] [-compare other.jsonl] [trace.jsonl]
//
// With no file the trace is read from stdin. Each report contains:
//
//   - the phase breakdown (frontend / qa-device / backend / cdcl, the paper's
//     Fig 11 view) per solve and per source,
//   - the Fig 9 outcome classification counts,
//   - the QA-quality summary: chain-break rate bucketed by chain length,
//     energy-gap distribution, per-strategy hits and conflict segments, and
//     the payoff estimate (conflicts avoided per device-µs),
//   - cube statistics when the trace recorded a cube-and-conquer run, and
//   - with -calls, the per-access QA call table.
//
// -json emits the same report as a JSON document; -compare loads a second
// trace and prints both reports' aggregates side by side with deltas.
// Exit status: 0 on success, 1 on unreadable input, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"hyqsat/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the CLI is testable end to
// end: flag parsing, trace ingestion, report rendering, and exit codes.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	calls := fs.Bool("calls", false, "include the per-access QA call table")
	comparePath := fs.String("compare", "", "second trace to diff against the first")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "tracereport: at most one trace file")
		return 2
	}

	load := func(path string, fallback io.Reader) (*Report, error) {
		r := fallback
		name := "<stdin>"
		if path != "" {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r, name = f, path
		}
		return buildReport(name, r, *calls)
	}

	var primaryPath string
	if fs.NArg() == 1 {
		primaryPath = fs.Arg(0)
	}
	rep, err := load(primaryPath, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "tracereport:", err)
		return 1
	}

	if *comparePath != "" {
		other, err := load(*comparePath, nil)
		if err != nil {
			fmt.Fprintln(stderr, "tracereport:", err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]*Report{"a": rep, "b": other}); err != nil {
				fmt.Fprintln(stderr, "tracereport:", err)
				return 1
			}
			return 0
		}
		writeCompare(stdout, rep, other)
		return 0
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "tracereport:", err)
			return 1
		}
		return 0
	}
	writeReport(stdout, rep)
	return 0
}

// Report is the full analysis of one trace.
type Report struct {
	File   string          `json:"file"`
	Header obs.HeaderEvent `json:"header"`
	Events int             `json:"events"`
	// Total aggregates the whole trace regardless of attribution.
	Total  Aggregate     `json:"total"`
	Solves []SolveReport `json:"solves,omitempty"`
}

// Aggregate is the analysis of one event subset: phase breakdown (ns per
// phase), outcome classification counts, and the QA-quality summary.
type Aggregate struct {
	Events   int                `json:"events"`
	Phases   map[string]int64   `json:"phases_ns,omitempty"`
	Outcomes map[string]int     `json:"outcomes,omitempty"`
	Quality  obs.QualitySummary `json:"quality"`
}

// SolveReport covers every event attributed to one solve id.
type SolveReport struct {
	Solve     string         `json:"solve"`
	Aggregate Aggregate      `json:"aggregate"`
	Cubes     *CubeStats     `json:"cubes,omitempty"`
	Sources   []SourceReport `json:"sources,omitempty"`
}

// SourceReport covers one emitter's stream inside a solve.
type SourceReport struct {
	Name      string      `json:"name"`
	Aggregate Aggregate   `json:"aggregate"`
	QPU       *QPUStats   `json:"qpu,omitempty"`
	QACalls   []QACallRow `json:"qa_calls,omitempty"`
}

// CubeStats summarises a cube-and-conquer run recorded in the trace.
type CubeStats struct {
	Cubes     int            `json:"cubes"`
	ByStatus  map[string]int `json:"by_status"`
	Conflicts int64          `json:"conflicts"`
	Workers   int            `json:"workers"`
}

// QPUStats counts the retry layer's events within one source.
type QPUStats struct {
	Retries  int `json:"retries"`
	Faults   int `json:"faults"`
	Breakers int `json:"breaker_transitions"`
}

// QACallRow is one line of the -calls table.
type QACallRow struct {
	TSUs     int64   `json:"ts_us"`
	Call     int64   `json:"call"`
	Reads    int     `json:"reads"`
	Best     float64 `json:"best_energy"`
	MeanGap  float64 `json:"mean_gap"`
	Broken   float64 `json:"broken_frac"`
	Chains   int     `json:"chains"`
	MaxChain int     `json:"max_chain_len,omitempty"`
	DeviceUs float64 `json:"device_us"`
}

// buildReport ingests one trace and computes the full analysis.
func buildReport(name string, r io.Reader, withCalls bool) (*Report, error) {
	if r == nil {
		return nil, fmt.Errorf("no input")
	}
	header, events, err := obs.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	rep := &Report{File: name, Header: header, Events: len(events), Total: aggregate(events)}

	bySolve := map[string][]obs.Stamped{}
	var solveOrder []string
	for _, ev := range events {
		if _, seen := bySolve[ev.Solve]; !seen {
			solveOrder = append(solveOrder, ev.Solve)
		}
		bySolve[ev.Solve] = append(bySolve[ev.Solve], ev)
	}
	for _, id := range solveOrder {
		rep.Solves = append(rep.Solves, solveReport(id, bySolve[id], withCalls))
	}
	return rep, nil
}

func solveReport(id string, events []obs.Stamped, withCalls bool) SolveReport {
	sr := SolveReport{Solve: id, Aggregate: aggregate(events)}

	cubeStatus := map[string]int{}
	cubeSeen := map[int]bool{}
	workers := map[int]bool{}
	var cubeConflicts int64
	for _, ev := range events {
		if e, ok := ev.E.(obs.CubeEvent); ok {
			cubeStatus[e.Status]++
			cubeSeen[e.Cube] = true
			workers[e.Worker] = true
			cubeConflicts += e.Conflicts
		}
	}
	if len(cubeSeen) > 0 {
		sr.Cubes = &CubeStats{Cubes: len(cubeSeen), ByStatus: cubeStatus,
			Conflicts: cubeConflicts, Workers: len(workers)}
	}

	bySrc := map[string][]obs.Stamped{}
	var srcOrder []string
	for _, ev := range events {
		if _, seen := bySrc[ev.Src]; !seen {
			srcOrder = append(srcOrder, ev.Src)
		}
		bySrc[ev.Src] = append(bySrc[ev.Src], ev)
	}
	sort.Strings(srcOrder)
	for _, src := range srcOrder {
		sub := bySrc[src]
		rep := SourceReport{Name: src, Aggregate: aggregate(sub)}
		var qpu QPUStats
		for _, ev := range sub {
			switch ev.E.(type) {
			case obs.QPURetryEvent:
				qpu.Retries++
			case obs.QPUFaultEvent:
				qpu.Faults++
			case obs.BreakerEvent:
				qpu.Breakers++
			}
		}
		if qpu != (QPUStats{}) {
			rep.QPU = &qpu
		}
		if withCalls {
			rep.QACalls = callTable(sub)
		}
		sr.Sources = append(sr.Sources, rep)
	}
	return sr
}

func aggregate(events []obs.Stamped) Aggregate {
	agg := Aggregate{Events: len(events), Quality: obs.ComputeQuality(events)}
	phases := obs.PhaseBreakdown(events)
	if len(phases) > 0 {
		agg.Phases = make(map[string]int64, len(phases))
		for name, d := range phases {
			agg.Phases[name] = d.Nanoseconds()
		}
	}
	if oc := obs.OutcomeCounts(events); len(oc) > 0 {
		agg.Outcomes = oc
	}
	return agg
}

func callTable(events []obs.Stamped) []QACallRow {
	var rows []QACallRow
	for _, ev := range events {
		e, ok := ev.E.(obs.QACallEvent)
		if !ok {
			continue
		}
		row := QACallRow{
			TSUs:     ev.TS / 1000,
			Call:     e.Call,
			Reads:    e.Reads,
			Chains:   e.Chains,
			MaxChain: e.MaxChainLen,
			DeviceUs: float64(e.DeviceNs) / 1000,
		}
		if e.Best >= 0 && e.Best < len(e.Energies) {
			row.Best = e.Energies[e.Best]
			var gaps float64
			for _, en := range e.Energies {
				gaps += en - row.Best
			}
			if len(e.Energies) > 0 {
				row.MeanGap = gaps / float64(len(e.Energies))
			}
		}
		if total := e.Chains * len(e.BrokenChains); total > 0 {
			var broken int
			for _, b := range e.BrokenChains {
				broken += b
			}
			row.Broken = float64(broken) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// writeReport renders the human-facing report.
func writeReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "trace %s: %d events", rep.File, rep.Events)
	if rep.Header.Schema > 0 {
		fmt.Fprintf(w, ", schema %d, started %s", rep.Header.Schema,
			time.UnixMicro(rep.Header.StartUs).UTC().Format(time.RFC3339))
	} else {
		fmt.Fprint(w, ", no header (legacy trace)")
	}
	fmt.Fprintln(w)
	if len(rep.Solves) > 1 || rep.Total.Events != solveEvents(rep) {
		writeAggregate(w, "total", rep.Total, "")
	}
	for _, sr := range rep.Solves {
		id := sr.Solve
		if id == "" {
			id = "(unattributed)"
		}
		fmt.Fprintf(w, "solve %s\n", id)
		writeAggregate(w, "", sr.Aggregate, "  ")
		if sr.Cubes != nil {
			fmt.Fprintf(w, "  cubes: %d over %d workers, conflicts=%d", sr.Cubes.Cubes,
				sr.Cubes.Workers, sr.Cubes.Conflicts)
			for _, st := range sortedKeys(sr.Cubes.ByStatus) {
				fmt.Fprintf(w, " %s=%d", st, sr.Cubes.ByStatus[st])
			}
			fmt.Fprintln(w)
		}
		for _, src := range sr.Sources {
			name := src.Name
			if name == "" {
				name = "(unattributed)"
			}
			fmt.Fprintf(w, "  source %s (%d events)\n", name, src.Aggregate.Events)
			writeAggregate(w, "", src.Aggregate, "    ")
			if src.QPU != nil {
				fmt.Fprintf(w, "    qpu: retries=%d faults=%d breaker=%d\n",
					src.QPU.Retries, src.QPU.Faults, src.QPU.Breakers)
			}
			if len(src.QACalls) > 0 {
				fmt.Fprintf(w, "    %8s %6s %6s %12s %9s %7s %7s %9s\n",
					"ts(us)", "call", "reads", "best", "meangap", "broken", "chains", "dev(us)")
				for _, row := range src.QACalls {
					fmt.Fprintf(w, "    %8d %6d %6d %12.4f %9.4f %6.1f%% %7d %9.1f\n",
						row.TSUs, row.Call, row.Reads, row.Best, row.MeanGap,
						100*row.Broken, row.Chains, row.DeviceUs)
				}
			}
		}
	}
}

func solveEvents(rep *Report) int {
	n := 0
	for _, sr := range rep.Solves {
		n += sr.Aggregate.Events
	}
	return n
}

func writeAggregate(w io.Writer, title string, agg Aggregate, indent string) {
	if title != "" {
		fmt.Fprintf(w, "%s%s (%d events)\n", indent, title, agg.Events)
		indent += "  "
	}
	if len(agg.Phases) > 0 {
		var total int64
		for _, ns := range agg.Phases {
			total += ns
		}
		fmt.Fprintf(w, "%sphases (total %v):\n", indent, time.Duration(total))
		for _, name := range sortedKeys(agg.Phases) {
			ns := agg.Phases[name]
			share := 0.0
			if total > 0 {
				share = 100 * float64(ns) / float64(total)
			}
			fmt.Fprintf(w, "%s  %-10s %12v %5.1f%%\n", indent, name, time.Duration(ns), share)
		}
	}
	if len(agg.Outcomes) > 0 {
		fmt.Fprintf(w, "%soutcomes:", indent)
		for _, class := range sortedKeys(agg.Outcomes) {
			fmt.Fprintf(w, " %s=%d", class, agg.Outcomes[class])
		}
		fmt.Fprintln(w)
	}
	writeQuality(w, agg.Quality, indent)
}

func writeQuality(w io.Writer, q obs.QualitySummary, indent string) {
	if q.QACalls == 0 && q.Conflicts == 0 && q.Degrades == 0 {
		return
	}
	fmt.Fprintf(w, "%squality: qacalls=%d reads=%d deviceus=%.1f chainbreakrate=%.4f conflicts=%d degrades=%d\n",
		indent, q.QACalls, q.Reads, q.DeviceUs, q.ChainBreakRate, q.Conflicts, q.Degrades)
	if len(q.ChainBreakByLen) > 0 {
		fmt.Fprintf(w, "%s  chain-break by max len:", indent)
		for _, b := range q.ChainBreakByLen {
			label := fmt.Sprintf("≤%d", b.MaxLen)
			if b.MaxLen == 0 {
				label = ">16"
			}
			fmt.Fprintf(w, " %s:%.4f(n=%d)", label, b.Rate, b.Reads)
		}
		fmt.Fprintln(w)
	}
	if q.EnergyGap.Count > 0 {
		fmt.Fprintf(w, "%s  energy gap: n=%d mean=%.4f min=%.4f max=%.4f\n",
			indent, q.EnergyGap.Count, q.EnergyGap.Mean, q.EnergyGap.Min, q.EnergyGap.Max)
	}
	if len(q.Strategies) > 0 {
		fmt.Fprintf(w, "%s  strategies:", indent)
		for _, s := range q.Strategies {
			fmt.Fprintf(w, " s%d[hits=%d seg=%d mean=%.1f]", s.Strategy, s.Hits, s.Segments, s.MeanConflicts)
		}
		fmt.Fprintln(w)
	}
	if q.PayoffPerDeviceUs != 0 || q.BaselineConflictsPerSegment != 0 {
		fmt.Fprintf(w, "%s  payoff: baseline=%.1f conf/seg avoided=%.1f payoff=%.4f conf/device-us\n",
			indent, q.BaselineConflictsPerSegment, q.AvoidedConflicts, q.PayoffPerDeviceUs)
	}
}

// writeCompare renders the two traces' aggregates side by side.
func writeCompare(w io.Writer, a, b *Report) {
	fmt.Fprintf(w, "compare %s (a) vs %s (b)\n", a.File, b.File)
	fmt.Fprintf(w, "  events: a=%d b=%d\n", a.Events, b.Events)

	names := map[string]bool{}
	for name := range a.Total.Phases {
		names[name] = true
	}
	for name := range b.Total.Phases {
		names[name] = true
	}
	if len(names) > 0 {
		fmt.Fprintf(w, "  %-12s %14s %14s %9s\n", "phase", "a", "b", "delta")
		for _, name := range sortedKeys(names) {
			pa := time.Duration(a.Total.Phases[name])
			pb := time.Duration(b.Total.Phases[name])
			fmt.Fprintf(w, "  %-12s %14v %14v %9s\n", name, pa, pb, deltaPct(float64(pa), float64(pb)))
		}
	}

	qa, qb := a.Total.Quality, b.Total.Quality
	row := func(name string, va, vb float64) {
		fmt.Fprintf(w, "  %-18s %12.4f %12.4f %9s\n", name, va, vb, deltaPct(va, vb))
	}
	fmt.Fprintf(w, "  %-18s %12s %12s %9s\n", "quality", "a", "b", "delta")
	row("qa_calls", float64(qa.QACalls), float64(qb.QACalls))
	row("chain_break_rate", qa.ChainBreakRate, qb.ChainBreakRate)
	row("energy_gap_mean", qa.EnergyGap.Mean, qb.EnergyGap.Mean)
	row("conflicts", float64(qa.Conflicts), float64(qb.Conflicts))
	row("degrades", float64(qa.Degrades), float64(qb.Degrades))
	row("payoff_per_us", qa.PayoffPerDeviceUs, qb.PayoffPerDeviceUs)
}

func deltaPct(a, b float64) string {
	if a == 0 {
		if b == 0 {
			return "0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
