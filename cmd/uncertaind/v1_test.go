package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uncertaindb/pkg/uncertain"
)

// The /v1 surface serves the same handlers as the legacy routes, without
// deprecation headers; the legacy routes carry Deprecation and a successor
// Link.
func TestV1RoutesAndDeprecationHeaders(t *testing.T) {
	srv, _ := newTestServer(t)

	status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Takes", takesScript)
	if status != http.StatusOK {
		t.Fatalf("PUT /v1/tables/Takes: %d %s", status, body)
	}
	for _, path := range []string{"/v1/tables", "/v1/tables/Takes", "/v1/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if d := resp.Header.Get("Deprecation"); d != "" {
			t.Errorf("GET %s: unexpected Deprecation header %q on the versioned surface", path, d)
		}
	}

	resp, err := http.Get(srv.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Deprecation") != "true" {
		t.Errorf("legacy /tables: missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "</v1/tables>") || !strings.Contains(link, "successor-version") {
		t.Errorf("legacy /tables: Link = %q, want successor-version pointer to /v1/tables", link)
	}

	// Same answers on both surfaces.
	v1 := postPath(t, srv, "/v1/query", `{"query": "project[1](Takes)"}`)
	legacy := postPath(t, srv, "/query", `{"query": "project[1](Takes)"}`)
	a, _ := json.Marshal(v1.Tuples)
	b, _ := json.Marshal(legacy.Tuples)
	if string(a) != string(b) {
		t.Errorf("v1 and legacy answers differ: %s vs %s", a, b)
	}
}

func postPath(t *testing.T, srv *httptest.Server, path, reqBody string) queryResponse {
	t.Helper()
	status, body := doJSON(t, http.MethodPost, srv.URL+path, reqBody)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad query response %s: %v", body, err)
	}
	return qr
}

// batchItemWire mirrors batchItem for decoding: json cannot unmarshal into
// an embedded pointer to an unexported type, so tests embed the value.
type batchItemWire struct {
	Error string `json:"error"`
	queryResponse
}

type batchResponseWire struct {
	CatalogVersion uint64          `json:"catalogVersion"`
	Results        []batchItemWire `json:"results"`
}

// POST /v1/query/batch answers N queries against one catalog snapshot, with
// per-item errors.
func TestQueryBatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)

	reqBody := `{"queries": [
		{"query": "project[1](select[$2 = 'phys'](Takes))"},
		{"query": "select[("},
		{"query": "project[1](Nope)"},
		{"query": "project[1](select[$2 = 'phys'](Takes))"}
	]}`
	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query/batch", reqBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/query/batch: %d %s", status, body)
	}
	var resp batchResponseWire
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad batch response %s: %v", body, err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Query == "" {
		t.Fatalf("item 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[2].Error == "" {
		t.Errorf("items 1 and 2 must carry per-item errors: %+v", resp.Results[1:3])
	}
	if resp.Results[3].Query == "" {
		t.Errorf("item 3: %+v", resp.Results[3])
	}
	if v0, v3 := resp.Results[0].CatalogVersion, resp.Results[3].CatalogVersion; v0 != v3 || resp.CatalogVersion != v0 {
		t.Errorf("batch catalog versions inconsistent: %d, %d, top-level %d", v0, v3, resp.CatalogVersion)
	}
	// A repeated batch runs off the plan cache; even an all-error batch
	// reports the snapshot's catalog version.
	status, body = doJSON(t, http.MethodPost, srv.URL+"/v1/query/batch",
		`{"queries": [{"query": "project[1](select[$2 = 'phys'](Takes))"}, {"query": "project[1](Nope)"}]}`)
	if status != http.StatusOK {
		t.Fatalf("second batch: %d %s", status, body)
	}
	var resp2 batchResponseWire
	if err := json.Unmarshal(body, &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Results[0].CacheHit {
		t.Errorf("second batch must hit the plan cache: %+v", resp2.Results[0])
	}
	if resp2.Results[1].Error == "" || resp2.CatalogVersion == 0 {
		t.Errorf("batch with failures: %+v (catalogVersion %d)", resp2.Results[1], resp2.CatalogVersion)
	}
	for _, ta := range resp.Results[0].Tuples {
		if ta.P <= 0 || ta.P > 1 {
			t.Errorf("marginal out of range: %+v", ta)
		}
	}

	// Malformed and oversized batches are rejected.
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/query/batch", `{"queries": []}`); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	var big strings.Builder
	big.WriteString(`{"queries": [`)
	for i := 0; i < maxBatchQueries+1; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"query": "project[1](Takes)"}`)
	}
	big.WriteString(`]}`)
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/query/batch", big.String()); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", status)
	}
}

// Batch answers must be identical to the same queries issued one at a time.
func TestBatchMatchesSingle(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	queries := []string{
		"project[1](Takes)",
		"project[2](Takes)",
		"project[1](select[$2 = 'phys'](Takes))",
	}
	var sb strings.Builder
	sb.WriteString(`{"queries": [`)
	for i, q := range queries {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"query": %q}`, q)
	}
	sb.WriteString(`]}`)
	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query/batch", sb.String())
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var batch batchResponseWire
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single := postPath(t, srv, "/v1/query", fmt.Sprintf(`{"query": %q}`, q))
		item := batch.Results[i]
		if item.Error != "" {
			t.Fatalf("batch item %d errored: %s", i, item.Error)
		}
		if len(single.Tuples) != len(item.Tuples) {
			t.Fatalf("query %s: %d single vs %d batch answers", q, len(single.Tuples), len(item.Tuples))
		}
		for j := range single.Tuples {
			if fmt.Sprint(single.Tuples[j].Tuple) != fmt.Sprint(item.Tuples[j].Tuple) ||
				math.Abs(single.Tuples[j].P-item.Tuples[j].P) > 1e-12 {
				t.Errorf("query %s answer %d: single %+v vs batch %+v", q, j, single.Tuples[j], item.Tuples[j])
			}
		}
	}
}

// E13b: N queries per batch vs N single /v1/query round-trips. The batch
// amortizes HTTP framing, JSON decoding, snapshotting and per-request
// dispatch; EXPERIMENTS.md records the measured per-query latency gap.
func BenchmarkHTTPBatchVsSingle(b *testing.B) {
	db := uncertain.MustOpen(uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(db))
	defer srv.Close()

	subjects := []string{"phys", "chem", "math"}
	const n = 24
	singles := make([]string, n)
	var batch strings.Builder
	batch.WriteString(`{"queries": [`)
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("project[1](select[$2 = '%s'](Takes))", subjects[i%len(subjects)])
		singles[i] = fmt.Sprintf(`{"query": %q}`, q)
		if i > 0 {
			batch.WriteString(",")
		}
		fmt.Fprintf(&batch, `{"query": %q}`, q)
	}
	batch.WriteString(`]}`)

	// The body is drained before it is closed so the client reuses its
	// keep-alive connection; otherwise every request dials a new one and
	// the single-query series measures TCP set-up.
	post := func(path, body string) error {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm the plan cache.
	if err := post("/v1/query/batch", batch.String()); err != nil {
		b.Fatal(err)
	}

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range singles {
				if err := post("/v1/query", s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post("/v1/query/batch", batch.String()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const labsScript = `table Labs arity 2
row 'phys', 'L1'
row 'math', 'L2' | l = 1
dist l = {0:0.5, 1:0.5}
`

// /v1/query returns the cached physical plan, and /v1/stats exposes the
// aggregated per-operator counters (rows in/out, hash probes,
// residual-bucket hits, join strategy counts).
func TestV1PlanAndOperatorCounters(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	if status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Labs", labsScript); status != http.StatusOK {
		t.Fatalf("PUT Labs: %d %s", status, body)
	}

	qr := postPath(t, srv, "/v1/query", `{"query": "project[1,4](Takes join[$2 = $3] Labs)"}`)
	if !strings.Contains(qr.Plan, "hash-join[$2=$1]") || !strings.Contains(qr.Plan, "scan(Takes)") {
		t.Errorf("query response plan missing hash join:\n%s", qr.Plan)
	}

	status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d %s", status, body)
	}
	var stats struct {
		Engine struct {
			Ops struct {
				RowsIn          uint64 `json:"rowsIn"`
				RowsOut         uint64 `json:"rowsOut"`
				HashJoins       uint64 `json:"hashJoins"`
				NestedLoopJoins uint64 `json:"nestedLoopJoins"`
				HashProbes      uint64 `json:"hashProbes"`
				ResidualHits    uint64 `json:"residualHits"`
			} `json:"ops"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	ops := stats.Engine.Ops
	if ops.HashJoins != 1 {
		t.Errorf("hashJoins = %d, want 1 (stats: %s)", ops.HashJoins, body)
	}
	// Theo's ground 'math' key probes the hash table; Alice's and Bob's
	// variable keys scan the two build rows each.
	if ops.HashProbes != 1 || ops.ResidualHits != 4 {
		t.Errorf("hashProbes = %d residualHits = %d, want 1 and 4", ops.HashProbes, ops.ResidualHits)
	}
	if ops.RowsIn == 0 || ops.RowsOut == 0 {
		t.Errorf("row counters empty: %s", body)
	}

	// A cache hit reuses the compiled plan and leaves the counters alone.
	qr2 := postPath(t, srv, "/v1/query", `{"query": "project[1,4](Takes join[$2 = $3] Labs)"}`)
	if !qr2.CacheHit || qr2.Plan != qr.Plan {
		t.Errorf("cache hit must reuse the physical plan (hit=%v)", qr2.CacheHit)
	}
	_, body2 := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	var stats2 struct {
		Engine struct {
			Ops struct {
				HashJoins uint64 `json:"hashJoins"`
			} `json:"ops"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body2, &stats2); err != nil {
		t.Fatal(err)
	}
	if stats2.Engine.Ops.HashJoins != 1 {
		t.Errorf("cache hit recompiled the plan: hashJoins = %d", stats2.Engine.Ops.HashJoins)
	}
}
