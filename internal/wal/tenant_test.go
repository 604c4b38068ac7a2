package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidTenantName(t *testing.T) {
	for _, ok := range []string{"a", "alpha", "Tenant-1", "t_0", strings.Repeat("x", 64)} {
		if err := ValidTenantName(ok); err != nil {
			t.Errorf("ValidTenantName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", ".hidden", ".drop-x", "a/b", "a b", "ü", "a.b", strings.Repeat("x", 65)} {
		if err := ValidTenantName(bad); err == nil {
			t.Errorf("ValidTenantName(%q) = nil, want error", bad)
		}
	}
}

const tenantTestDoc = `<site><people><person id="p1"><name>Ada</name></person></people></site>`

// mkTenant creates a real tenant under root through the normal Create path.
func mkTenant(t *testing.T, root, name string) {
	t.Helper()
	db, err := Create(TenantDir(root, name), []byte(tenantTestDoc), Options{})
	if err != nil {
		t.Fatalf("create tenant %s: %v", name, err)
	}
	if _, err := db.AddView("V", "/site{ID}/people{ID}/person{ID}"); err != nil {
		t.Fatalf("tenant %s add view: %v", name, err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close tenant %s: %v", name, err)
	}
}

func TestScanTenantRootCleansDebris(t *testing.T) {
	root := t.TempDir()
	mkTenant(t, root, "alpha")
	// A drop interrupted between rename and delete.
	if err := os.MkdirAll(filepath.Join(root, ".drop-gone", "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A create killed before its initial checkpoint was published.
	if err := os.MkdirAll(filepath.Join(root, "partial", "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "partial", "wal", "000001.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign directory whose name no tenant can have: not ours to touch.
	if err := os.MkdirAll(filepath.Join(root, "not a tenant"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stray file at the root: ignored.
	if err := os.WriteFile(filepath.Join(root, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	tenants, removed, err := ScanTenantRoot(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0] != "alpha" {
		t.Fatalf("tenants = %v, want [alpha]", tenants)
	}
	if len(removed) != 2 {
		t.Fatalf("removed = %v, want the tombstone and the partial create", removed)
	}
	for _, gone := range []string{".drop-gone", "partial"} {
		if _, err := os.Stat(filepath.Join(root, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the scan (err=%v)", gone, err)
		}
	}
	for _, kept := range []string{"alpha", "not a tenant", "README"} {
		if _, err := os.Stat(filepath.Join(root, kept)); err != nil {
			t.Fatalf("%s did not survive the scan: %v", kept, err)
		}
	}
	// A second scan is a no-op.
	tenants, removed, err = ScanTenantRoot(nil, root)
	if err != nil || len(tenants) != 1 || len(removed) != 0 {
		t.Fatalf("rescan = (%v, %v, %v), want ([alpha], [], nil)", tenants, removed, err)
	}
}

func TestScanTenantRootRejectsLegacyLayout(t *testing.T) {
	root := t.TempDir()
	// A pre-multi-tenant database directly in the data dir.
	db, err := Create(root, []byte(tenantTestDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, _, err := ScanTenantRoot(nil, root); err == nil {
		t.Fatal("scan of a flat single-database directory succeeded, want an error naming the migration")
	}
}

// TestCheckTenantRootOnlyReads: neither CheckTenantRoot nor Open creates a
// missing directory, and CheckTenantRoot leaves debris where it is.
func TestCheckTenantRootOnlyReads(t *testing.T) {
	root := t.TempDir()
	debris := filepath.Join(root, "beta")
	if err := os.Mkdir(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := CheckTenantRoot(nil, root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); err != nil {
		t.Fatalf("checkpoint-less tenant directory: %v", err)
	}
	missing := filepath.Join(root, "missing")
	if err := CheckTenantRoot(nil, missing); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(TenantDir(missing, "alpha"), Options{}); err == nil || !strings.Contains(err.Error(), "holds no checkpoint") {
		t.Fatalf("Open of a missing directory: %v", err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("missing root was created: %v", err)
	}
}

func TestDropTenant(t *testing.T) {
	root := t.TempDir()
	mkTenant(t, root, "alpha")
	mkTenant(t, root, "beta")
	if err := DropTenant(nil, root, "alpha"); err != nil {
		t.Fatal(err)
	}
	tenants, _, err := ScanTenantRoot(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0] != "beta" {
		t.Fatalf("tenants after drop = %v, want [beta]", tenants)
	}
	// Dropping a name that does not exist fails (nothing to rename) but
	// must not disturb the survivors.
	if err := DropTenant(nil, root, "alpha"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if db, err := Open(TenantDir(root, "beta"), Options{}); err != nil {
		t.Fatalf("beta unopenable after sibling drop: %v", err)
	} else {
		db.Close()
	}
}

// createScript is the crash-matrix workload for tenant creation: scan the
// root, create the tenant with a view, close. It reports whether the create
// was acknowledged (returned without error).
func createScript(root string, fsys FS) (acked bool, err error) {
	if _, _, err := ScanTenantRoot(fsys, root); err != nil {
		return false, err
	}
	db, err := CreateWithViews(TenantDir(root, "t1"), tenantTestDoc, []ViewSource{{"V", "/site{ID}/people{ID}/person{ID}"}}, Options{FS: fsys})
	if err != nil {
		return false, err
	}
	// The tenant exists, with its view, from here on: CreateWithViews
	// published its checkpoint once the view's record was durable.
	return true, db.Close()
}

// TestCreateThenKillMatrix kills tenant creation at every filesystem
// operation and verifies the existence rule both ways: an acknowledged
// create must survive recovery, an unacknowledged one must leave either
// nothing (debris cleaned) or a fully openable tenant with its view —
// never a half-made directory the next open trips over.
func TestCreateThenKillMatrix(t *testing.T) {
	probe := NewFailFS(OSFS)
	if acked, err := createScript(t.TempDir(), probe); err != nil || !acked {
		t.Fatalf("probe run: acked=%v err=%v", acked, err)
	}
	totalOps := probe.Ops()
	if totalOps < 5 {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for at := 0; at < totalOps; at++ {
		root := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = at
		acked, _ := createScript(root, ffs)

		// Recovery on the real filesystem, like a fresh process would.
		tenants, _, err := ScanTenantRoot(nil, root)
		if err != nil {
			t.Fatalf("crash at op %d: recovery scan: %v", at, err)
		}
		switch {
		case acked && (len(tenants) != 1 || tenants[0] != "t1"):
			t.Fatalf("crash at op %d: create was acked but recovery found %v", at, tenants)
		case len(tenants) > 1:
			t.Fatalf("crash at op %d: recovery found %v", at, tenants)
		}
		for _, name := range tenants {
			db, err := Open(TenantDir(root, name), Options{})
			if err != nil {
				t.Fatalf("crash at op %d: surviving tenant %s unopenable: %v", at, name, err)
			}
			if got := db.Engine().Doc.Size(); got == 0 {
				t.Fatalf("crash at op %d: surviving tenant %s recovered an empty document", at, name)
			}
			if !db.HasView("V") {
				t.Fatalf("crash at op %d: surviving tenant %s lost its view", at, name)
			}
			db.Close()
		}
	}
}

// TestDropThenKillMatrix kills DropTenant at every filesystem operation:
// after recovery the tenant is either still fully alive (crash before the
// tombstone rename, the point of no return) or completely gone — and no
// tombstone ever survives a recovery scan.
func TestDropThenKillMatrix(t *testing.T) {
	probe := NewFailFS(OSFS)
	{
		root := t.TempDir()
		mkTenant(t, root, "t1")
		if err := DropTenant(probe, root, "t1"); err != nil {
			t.Fatalf("probe drop: %v", err)
		}
	}
	totalOps := probe.Ops()
	if totalOps < 3 {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for at := 0; at < totalOps; at++ {
		root := t.TempDir()
		mkTenant(t, root, "t1")
		mkTenant(t, root, "keep")
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = at
		acked := DropTenant(ffs, root, "t1") == nil

		tenants, _, err := ScanTenantRoot(nil, root)
		if err != nil {
			t.Fatalf("crash at op %d: recovery scan: %v", at, err)
		}
		found := map[string]bool{}
		for _, name := range tenants {
			found[name] = true
		}
		if !found["keep"] {
			t.Fatalf("crash at op %d: unrelated tenant lost, recovery found %v", at, tenants)
		}
		if acked && found["t1"] {
			t.Fatalf("crash at op %d: drop was acked but t1 survived", at)
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".drop-") {
				t.Fatalf("crash at op %d: tombstone %s survived recovery", at, e.Name())
			}
		}
		if found["t1"] {
			db, err := Open(TenantDir(root, "t1"), Options{})
			if err != nil {
				t.Fatalf("crash at op %d: surviving t1 unopenable: %v", at, err)
			}
			db.Close()
		}
	}
}
