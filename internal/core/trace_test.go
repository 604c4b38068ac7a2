package core

import (
	"math/rand"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/update"
)

// TestTracedMixedStream exercises the functional-option constructor with a
// shared collecting tracer and a mixed insert/delete/replace stream over
// five views.
func TestTracedMixedStream(t *testing.T) {
	var tr obs.CollectTracer
	rng := rand.New(rand.NewSource(57))
	labels := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 4; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d,
			WithMetrics(obs.New()),
			WithTracer(&tr),
			WithPolicy(PolicySnowcaps),
		)
		views := []string{
			`//a{ID}//b{ID}`, `//a{ID}[//b{ID}//c{ID}]//d{ID}`,
			`//root{ID}/a{ID,val}`, `//a{ID}//b{ID,cont}`, `//a{ID}[val="5"]//b{ID}`,
		}
		var mvs []*ManagedView
		for _, v := range views {
			mvs = append(mvs, addView(t, e, v))
		}
		for step := 0; step < 6; step++ {
			var stmt string
			if step%3 == 2 {
				l := labels[rng.Intn(len(labels))]
				stmt = "replace /root//" + l + " with <" + l + ">5<b/></" + l + ">"
			} else {
				stmt = randomStatement(rng)
			}
			if _, err := e.ApplyStatement(update.MustParse(stmt)); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, step, stmt, err)
			}
			for i, mv := range mvs {
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d (%s): view %s diverged", trial, step, stmt, views[i])
				}
			}
		}
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("tracer collected nothing")
	}
}
