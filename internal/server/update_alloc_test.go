package server_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"xivm/internal/client"
	"xivm/internal/server"
	"xivm/internal/xmark"
)

// TestUpdateAllocBudget holds an update, as a caller of client.DB pays for
// it, to its engine work plus a wire that costs what it carries: on an
// in-memory 100 KB XMark tenant carrying the benchmark's seven views, the
// benchmark's bidder pair — insert a bidder under one open auction, delete
// it again — goes through client.DB.Update over a loopback listener 64
// times, and the mean of the cheapest insert and the cheapest delete is the
// figure held to the budget (each the one that found every pool warm, as in
// TestReadAllocBudget; the race detector drops a quarter of all pool Puts,
// so a pair is rarely clean twice). Engine, server and both ends of the
// transport measure 14.7 KB per update here (14.9 to 15.8 under the race
// detector, whose figure the budget is set from), 16.1 (16.6 to 16.9)
// while every statement's view report was made afresh and never given
// back, its target path parsed again, and the client's request buffer
// sized for the raw statement regrew for its escapes, 19.6 (20.2 to 20.6)
// while every statement built its propagation scratch afresh and every
// handler derived a timeout context for its update, 20.2 (20.9) while
// request and answer bodies were read into fresh buffers and the decoded
// strings aliased them, 22.6 (23.2) while the label index held every
// label of the document and the pair patched lists no one read. With the
// request marshalled and the answer decoded by reflection at the client, and the request read through a json.Decoder and the answer
// encoded from an UpdateResponse value at the server, they measured 24.8
// (25.4), which the budget fails. No body the client wrote may take the
// request decoder's encoding/json fallback, and no answer the server wrote
// the response decoder's.
func TestUpdateAllocBudget(t *testing.T) {
	const tenant = "bench"
	reg, err := server.NewRegistry(server.RegistryConfig{
		DefaultDoc: xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 2011}),
		DefaultViews: []server.ViewSpec{
			{Name: "Q1", Pattern: xmark.View("Q1").String()},
			{Name: "Q2", Pattern: xmark.View("Q2").String()},
			{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
			{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
			{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
			{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
			{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(tenant, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptestServer(t, reg)
	db := client.New(ts).DB(tenant)
	ctx := context.Background()

	const target = `/site/open_auctions/open_auction[@id="open_auction0"]`
	pair := [2]string{
		`insert <bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder> into ` + target,
		`delete ` + target + `/bidder[xbench]`,
	}
	requests, responses := server.RequestDeclines(), server.ResponseDeclines()
	apply := func(st string) {
		ur, err := db.Update(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if ur.Tenant != tenant || ur.Targets != 1 || len(ur.Views) != 7 {
			t.Fatalf("%s: answered %+v", st, ur)
		}
	}
	apply(pair[0]) // prime: connection, pools
	apply(pair[1])
	const runs, budgetKB = 64, 16.3
	cheapest := [2]uint64{^uint64(0), ^uint64(0)}
	var before, after runtime.MemStats
	for range runs {
		for i, st := range pair {
			runtime.ReadMemStats(&before)
			apply(st)
			runtime.ReadMemStats(&after)
			cheapest[i] = min(cheapest[i], after.TotalAlloc-before.TotalAlloc)
		}
	}
	kb := float64(cheapest[0]+cheapest[1]) / 2 / 1024
	t.Logf("%.1f KB per update: insert %.1f, delete %.1f (budget %v KB)", kb, float64(cheapest[0])/1024, float64(cheapest[1])/1024, budgetKB)
	if kb > budgetKB {
		t.Errorf("an update through the client allocates %.1f KB, budget %v KB", kb, budgetKB)
	}
	if n := server.RequestDeclines() - requests; n != 0 {
		t.Errorf("the request decoder declined %d bodies the client wrote", n)
	}
	if n := server.ResponseDeclines() - responses; n != 0 {
		t.Errorf("the response decoder declined %d bodies the server wrote", n)
	}
}

// httptestServer serves reg on a loopback listener until the test ends.
func httptestServer(t *testing.T, reg *server.Registry) string {
	t.Helper()
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return ts.URL
}
