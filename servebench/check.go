package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// eps is the tolerance for marginals and for "certain" (p = 1).
const eps = 1e-9

// answer is the part of a /v1/query response (or subscription line) the
// checks read. The rendered answer and plan are not decoded.
type answer struct {
	CatalogVersion uint64 `json:"catalogVersion"`
	CacheHit       bool   `json:"cacheHit"`
	Tuples         []struct {
		Tuple   []any   `json:"tuple"`
		P       float64 `json:"p"`
		Certain bool    `json:"certain"`
	} `json:"tuples"`
	Certain  [][]any `json:"certain"`
	Possible [][]any `json:"possible"`
}

// checkAnswer decodes a query response and checks it against the
// closed-form answer: the same tuples with the same marginals, every
// marginal in [0, 1], "certain" exactly the tuples with p = 1, and
// "possible" exactly the tuples with p > 0.
func checkAnswer(body []byte, w want) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %v", err)
	}
	return &a, checkDecoded(&a, w)
}

// checkDecoded is checkAnswer on an answer already decoded.
func checkDecoded(a *answer, w want) error {
	seen := make(map[string]bool, len(a.Tuples))
	certain := map[string]bool{}
	for _, t := range a.Tuples {
		k := tupleKey(t.Tuple)
		if seen[k] {
			return fmt.Errorf("tuple %s appears twice", k)
		}
		seen[k] = true
		if !(t.P >= 0 && t.P <= 1) {
			return fmt.Errorf("tuple %s: marginal %v outside [0, 1]", k, t.P)
		}
		if t.Certain != (math.Abs(t.P-1) <= eps) {
			return fmt.Errorf("tuple %s: certain=%v with p=%v", k, t.Certain, t.P)
		}
		if t.Certain {
			certain[k] = true
		}
		exp, ok := w[k]
		if !ok {
			return fmt.Errorf("tuple %s (p=%v) is not in the expected answer", k, t.P)
		}
		if math.Abs(t.P-exp) > eps {
			return fmt.Errorf("tuple %s: marginal %.12f, expected %.12f", k, t.P, exp)
		}
	}
	for _, k := range sortedKeys(w) {
		if !seen[k] {
			return fmt.Errorf("expected tuple %s (p=%v) is missing (%d of %d tuples returned)", k, w[k], len(a.Tuples), len(w))
		}
	}
	if err := sameSet("possible", a.Possible, seen); err != nil {
		return err
	}
	if err := sameSet("certain", a.Certain, certain); err != nil {
		return err
	}
	return nil
}

func sameSet(name string, got [][]any, want map[string]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%q lists %d tuples, expected %d", name, len(got), len(want))
	}
	for _, t := range got {
		if !want[tupleKey(t)] {
			return fmt.Errorf("%q lists %s, which it should not", name, tupleKey(t))
		}
	}
	return nil
}

// checkedBodies remembers, per query, the last response body that passed
// every check, with its timing fields removed. read_hot returns the same
// bytes for a query on every cache hit, so an identical body needs no
// second decode; any difference is decoded and checked in full.
type checkedBodies struct {
	last    map[string][]byte
	scratch []byte
}

func newCheckedBodies() *checkedBodies { return &checkedBodies{last: map[string][]byte{}} }

// seen reports whether body matches the last checked body for the query.
func (c *checkedBodies) seen(query string, body []byte) bool {
	c.scratch = stripTimings(c.scratch[:0], body)
	return bytes.Equal(c.last[query], c.scratch)
}

// remember stores body as checked for the query.
func (c *checkedBodies) remember(query string, body []byte) {
	c.last[query] = stripTimings(nil, body)
}

var timingFields = [][]byte{[]byte(`"prepareMicros":`), []byte(`"execMicros":`)}

// stripTimings appends body to dst without the digits of the per-request
// timing fields, the only bytes that differ between two cache hits.
func stripTimings(dst, body []byte) []byte {
	for _, f := range timingFields {
		i := bytes.Index(body, f)
		if i < 0 {
			continue
		}
		i += len(f)
		dst = append(dst, body[:i]...)
		for i < len(body) && body[i] >= '0' && body[i] <= '9' {
			i++
		}
		body = body[i:]
	}
	return append(dst, body...)
}
