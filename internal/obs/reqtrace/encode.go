package reqtrace

import (
	"fmt"
	"strconv"
	"strings"
)

// The wire format packs one trace into a journal annotation's Detail
// field, so span trees travel through the existing causal journal
// without touching its hand-rolled encoder:
//
//	<id16hex>|<outcome>|<count>|<latencyMs>|<retries>|<span>;<span>;...
//	span = name@startMs+durMs[@node][~util]
//
// Floats use strconv's shortest round-trip 'f' form — never an
// exponent, whose '+' would collide with the span separator — so a
// decoded trace is bit-identical to the encoded one. Span and
// service names never contain the separators (| ; @ ~), which the
// engine's fixed vocabulary guarantees.

// AppendDetail encodes tr onto buf and returns the extended slice. It is
// a kept trace's only stored form: Recorder.Record encodes into a buffer
// it reuses across traces, so a kept trace costs exactly one allocation,
// the string the ring keeps and the journal annotation's Detail shares.
func AppendDetail(buf []byte, tr *Trace) []byte {
	buf = appendID(buf, tr.ID)
	buf = append(buf, '|')
	buf = append(buf, tr.Outcome.String()...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, tr.Count, 10)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, tr.LatencyMs, 'f', -1, 64)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(tr.Retries), 10)
	buf = append(buf, '|')
	for i := range tr.Spans {
		if i > 0 {
			buf = append(buf, ';')
		}
		sp := &tr.Spans[i]
		buf = append(buf, sp.Name...)
		buf = append(buf, '@')
		buf = strconv.AppendFloat(buf, sp.StartMs, 'f', -1, 64)
		buf = append(buf, '+')
		buf = strconv.AppendFloat(buf, sp.DurMs, 'f', -1, 64)
		if sp.Node != "" {
			buf = append(buf, '@')
			buf = append(buf, sp.Node...)
		}
		if sp.Util != 0 {
			buf = append(buf, '~')
			buf = strconv.AppendFloat(buf, sp.Util, 'f', -1, 64)
		}
	}
	return buf
}

// DecodeDetail parses a Detail string back into a Trace. Time and
// Service are not part of the wire format — they ride in the annotation
// entry itself — so callers fill them from the journal entry.
func DecodeDetail(s string) (Trace, error) {
	var tr Trace
	parts := strings.SplitN(s, "|", 6)
	if len(parts) != 6 {
		return tr, fmt.Errorf("reqtrace: detail has %d fields, want 6", len(parts))
	}
	id, err := strconv.ParseUint(parts[0], 16, 64)
	if err != nil {
		return tr, fmt.Errorf("reqtrace: bad trace id %q: %w", parts[0], err)
	}
	tr.ID = id
	tr.IDHex = IDString(id)
	outcome, ok := ParseOutcome(parts[1])
	if !ok {
		return tr, fmt.Errorf("reqtrace: bad outcome %q", parts[1])
	}
	tr.Outcome = outcome
	tr.OutcomeS = outcome.String()
	if tr.Count, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
		return tr, fmt.Errorf("reqtrace: bad count %q: %w", parts[2], err)
	}
	if tr.LatencyMs, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return tr, fmt.Errorf("reqtrace: bad latency %q: %w", parts[3], err)
	}
	retries, err := strconv.ParseInt(parts[4], 10, 32)
	if err != nil {
		return tr, fmt.Errorf("reqtrace: bad retries %q: %w", parts[4], err)
	}
	tr.Retries = int(retries)
	if parts[5] == "" {
		return tr, nil
	}
	for _, raw := range strings.Split(parts[5], ";") {
		sp, err := decodeSpan(raw)
		if err != nil {
			return tr, err
		}
		tr.Spans = append(tr.Spans, sp)
	}
	return tr, nil
}

func decodeSpan(raw string) (Span, error) {
	var sp Span
	name, rest, ok := strings.Cut(raw, "@")
	if !ok {
		return sp, fmt.Errorf("reqtrace: span %q has no @", raw)
	}
	sp.Name = name
	if tail, util, ok := strings.Cut(rest, "~"); ok {
		rest = tail
		u, err := strconv.ParseFloat(util, 64)
		if err != nil {
			return sp, fmt.Errorf("reqtrace: span %q bad util: %w", raw, err)
		}
		sp.Util = u
	}
	timing, node, hasNode := strings.Cut(rest, "@")
	if hasNode {
		sp.Node = node
	}
	start, dur, ok := strings.Cut(timing, "+")
	if !ok {
		return sp, fmt.Errorf("reqtrace: span %q has no +", raw)
	}
	var err error
	if sp.StartMs, err = strconv.ParseFloat(start, 64); err != nil {
		return sp, fmt.Errorf("reqtrace: span %q bad start: %w", raw, err)
	}
	if sp.DurMs, err = strconv.ParseFloat(dur, 64); err != nil {
		return sp, fmt.Errorf("reqtrace: span %q bad duration: %w", raw, err)
	}
	return sp, nil
}
