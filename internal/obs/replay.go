package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ReadTrace decodes a JSONL event stream (as written by JSONLSink or
// Ring.Dump) back into its header and stamped, concretely-typed events.
// Events with an unknown type tag are skipped — a newer trace stays readable
// by an older reader — but malformed lines are errors. Legacy header-less
// traces decode fine: the returned header is the zero HeaderEvent (Schema 0),
// which callers can use to detect that no alignment information is available.
func ReadTrace(r io.Reader) (HeaderEvent, []Stamped, error) {
	type rawStamped struct {
		T     string          `json:"t"`
		TS    int64           `json:"ts"`
		Solve string          `json:"solve"`
		Src   string          `json:"src"`
		E     json.RawMessage `json:"e"`
	}
	var header HeaderEvent
	var out []Stamped
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var raw rawStamped
		if err := json.Unmarshal(text, &raw); err != nil {
			return header, out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if raw.T == headerKind {
			var h HeaderEvent
			if err := json.Unmarshal(raw.E, &h); err != nil {
				return header, out, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			if header == (HeaderEvent{}) {
				header = h
			}
			continue
		}
		decode, ok := eventDecoders[raw.T]
		if !ok {
			continue // unknown kind
		}
		ev, err := decode(raw.E)
		if err != nil {
			return header, out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, Stamped{T: raw.T, TS: raw.TS, Solve: raw.Solve, Src: raw.Src, E: ev})
	}
	if err := sc.Err(); err != nil {
		return header, out, fmt.Errorf("obs: reading trace: %w", err)
	}
	return header, out, nil
}

// eventDecoders maps every event kind, as its Kind method names it, to the
// decoder of its concrete type. The header is read separately.
var eventDecoders = map[string]func(json.RawMessage) (Event, error){
	ConflictEvent{}.Kind():    decodeAs[ConflictEvent],
	RestartEvent{}.Kind():     decodeAs[RestartEvent],
	QACallEvent{}.Kind():      decodeAs[QACallEvent],
	BatchEvent{}.Kind():       decodeAs[BatchEvent],
	EmbedEvent{}.Kind():       decodeAs[EmbedEvent],
	StrategyHitEvent{}.Kind(): decodeAs[StrategyHitEvent],
	PhaseSpan{}.Kind():        decodeAs[PhaseSpan],
	BreakerEvent{}.Kind():     decodeAs[BreakerEvent],
	QPURetryEvent{}.Kind():    decodeAs[QPURetryEvent],
	QPUFaultEvent{}.Kind():    decodeAs[QPUFaultEvent],
	DegradeEvent{}.Kind():     decodeAs[DegradeEvent],
	CubeEvent{}.Kind():        decodeAs[CubeEvent],
	JobEvent{}.Kind():         decodeAs[JobEvent],
}

// decodeAs decodes one event payload as a T and returns it by value, the
// type the emitters use, so replayed events compare equal to the originals.
func decodeAs[T Event](raw json.RawMessage) (Event, error) {
	var e T
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, err
	}
	return e, nil
}

// PhaseBreakdown reconstructs the Fig 11 time breakdown from a trace: the
// summed duration of every phase's spans, plus the modelled QA device time
// from QACallEvents under the "qa_device" key.
func PhaseBreakdown(events []Stamped) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, ev := range events {
		switch e := ev.E.(type) {
		case PhaseSpan:
			out[e.Phase] += time.Duration(e.Duration())
		case QACallEvent:
			out["qa_device"] += time.Duration(e.DeviceNs)
		}
	}
	return out
}

// OutcomeCounts reconstructs the Fig 9 classification histogram from a
// trace: how many QA accesses landed in each energy class.
func OutcomeCounts(events []Stamped) map[string]int {
	out := map[string]int{}
	for _, ev := range events {
		if e, ok := ev.E.(StrategyHitEvent); ok {
			out[e.Class]++
		}
	}
	return out
}
