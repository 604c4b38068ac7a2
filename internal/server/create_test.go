package server

import (
	"context"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/wal"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// killViews are the three views the create kill matrix asks for.
func killViews() []ViewSpec {
	return append(testViewSpecs(), ViewSpec{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`})
}

// createTenant opens a registry on root over fsys, creates tenant t1 with
// killViews and shuts the registry down. It reports whether the create was
// acknowledged.
func createTenant(root, doc string, fsys wal.FS) (acked bool) {
	reg, err := NewRegistry(RegistryConfig{
		Shard:   Config{Metrics: obs.New()},
		DataDir: root,
		WAL:     wal.Options{Metrics: obs.New(), FS: fsys},
	})
	if err != nil {
		return false
	}
	_, err = reg.Create("t1", doc, killViews())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = reg.Shutdown(ctx)
	return err == nil
}

// TestCreateWithViewsKillMatrix kills a durable Registry.Create with three
// views at every mutating filesystem operation, the checkpoint goroutine's
// and the log's alike. A fresh registry on the same root then holds the
// tenant with all three views, each equal to a fresh materialization over
// the document, or does not hold it at all; an acknowledged create always
// survives. A create that published checkpoint-0 before its view records
// were durable would leave a tenant with fewer views.
func TestCreateWithViewsKillMatrix(t *testing.T) {
	doc := xmark.GenerateSmall(1, 0)
	fresh := func() *core.Engine {
		d, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(d, core.WithMetrics(obs.New()))
		for _, v := range killViews() {
			if _, err := eng.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}()
	probe := wal.NewFailFS(wal.OSFS)
	if !createTenant(t.TempDir(), doc, probe) {
		t.Fatal("probe run: the create failed")
	}
	total := probe.Ops()
	survived := 0
	for at := 0; at < total; at++ {
		root := t.TempDir()
		ffs := wal.NewFailFS(wal.OSFS)
		ffs.CrashAt = at
		acked := createTenant(root, doc, ffs)

		reg, err := NewRegistry(RegistryConfig{
			Shard:   Config{Metrics: obs.New()},
			DataDir: root,
			WAL:     wal.Options{Metrics: obs.New()},
		})
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", at, err)
		}
		sh, err := reg.Get("t1")
		switch {
		case err != nil && acked:
			t.Fatalf("crash at op %d: the create was acknowledged, but the tenant is gone: %v", at, err)
		case err == nil:
			survived++
			requireServedIs(t, "freshly materialized", sh.Epoch(), fresh)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := reg.Shutdown(ctx); err != nil {
			t.Fatalf("crash at op %d: shutdown: %v", at, err)
		}
		cancel()
	}
	t.Logf("%d crash points, the tenant survived %d", total, survived)
	if survived == 0 || survived == total {
		t.Fatalf("the tenant survived %d of %d crash points: the matrix missed the commit point", survived, total)
	}
}
