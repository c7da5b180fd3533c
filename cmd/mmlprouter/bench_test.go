package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// BenchmarkRouterSolveJSON drives the router's ServeHTTP with the body of
// one necklace-cold request, a one-row reweight of the 3,000-agent
// necklace at R = 4 in json.Marshal's spelling, against a stub shard that
// answers a canned 3,000-entry answer: the body read, JSON decode, canon
// transcode, forward and relay the router pays for each JSON solve.
func BenchmarkRouterSolveJSON(b *testing.B) {
	in := gen.TriNecklace(1000)
	for j := range in.Cons[7].Terms {
		in.Cons[7].Terms[j].Coef *= 0.75
	}
	body, err := json.Marshal(mmlp.SolveRequest{Instance: in, R: 4, DisableSpecialCases: true})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, in.NumAgents)
	for v := range x {
		x[v] = 0.49999999999999994
	}
	answer, err := mmlp.AppendAnswer(nil, &mmlp.SolveResponse{Status: "approximate", X: x, Utility: 1.5, UpperBound: 1.5, LatencyMS: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", mmlp.ContentTypeJSON)
		w.Write(answer)
	}))
	b.Cleanup(stub.Close)
	u, err := url.Parse(stub.URL)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := shard.New([]string{u.Host}, 32)
	if err != nil {
		b.Fatal(err)
	}
	rt := newRouter(shard.NewClient(ring, shard.ClientOptions{Cooldown: time.Minute}), 1<<20)
	solve := func() {
		if w := rawPost(rt, "/v1/solve", mmlp.ContentTypeJSON, "", body); w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	for range 3 { // the keep-alive connection and the transcode's pooled hasher
		solve()
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}
