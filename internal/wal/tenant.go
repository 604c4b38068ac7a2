package wal

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Multi-tenant directory layout. A tenant root holds one database directory
// per tenant:
//
//	<root>/
//	  alpha/            tenant "alpha": checkpoints + wal/ (a normal DB dir)
//	  beta/             tenant "beta"
//	  .drop-gamma/      tombstone: a drop that was interrupted mid-delete
//
// The existence rule making create and drop crash-safe is:
//
//	a tenant exists  ⇔  <root>/<name> holds at least one checkpoint
//
// CreateWithViews publishes its initial checkpoint atomically (temp dir +
// rename), and only once the record of every view it was asked for is
// durable, so a tenant that exists has all its views, and a process
// killed mid-create leaves a directory with no checkpoint — not a tenant,
// and ScanTenantRoot removes the debris, the log of its views with it.
// Drop first renames the directory to a ".drop-" tombstone (one atomic
// step: after it the tenant no longer exists) and then deletes the
// tombstone; a kill between the two leaves only the tombstone, which
// ScanTenantRoot finishes deleting on the next open.
const dropPrefix = ".drop-"

// maxTenantName bounds tenant names; they become directory names and URL
// path segments.
const maxTenantName = 64

// ValidTenantName reports whether name can name a tenant: nonempty, at
// most 64 bytes, letters, digits, '_' and '-' only (it is both a directory
// name and a URL path segment, and must never collide with a tombstone or
// hidden file).
func ValidTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("wal: empty tenant name")
	}
	if len(name) > maxTenantName {
		return fmt.Errorf("wal: tenant name longer than %d bytes", maxTenantName)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("wal: tenant name %q: only letters, digits, '_' and '-' are allowed", name)
		}
	}
	return nil
}

// TenantDir returns the database directory of a tenant under root.
func TenantDir(root, name string) string { return filepath.Join(root, name) }

// isDatabase reports whether dir holds a database (at least one published
// checkpoint).
func isDatabase(fsys FS, dir string) (bool, error) {
	lsns, err := listCheckpoints(fsys, dir)
	if err != nil {
		return false, err
	}
	return len(lsns) > 0, nil
}

// CheckTenantRoot errors if root is itself a database directory (the
// pre-multi-tenant flat layout) — move it to <root>/<name> to serve it as a
// tenant. It only reads: a missing root passes and is not created. fsys nil
// selects the OS filesystem.
func CheckTenantRoot(fsys FS, root string) error {
	if fsys == nil {
		fsys = OSFS
	}
	if isDB, err := isDatabase(fsys, root); err != nil {
		return err
	} else if isDB {
		return fmt.Errorf("wal: %s is a single-database directory, not a tenant root (move it to %s to serve it as a tenant)", root, filepath.Join(root, "default"))
	}
	return nil
}

// ScanTenantRoot lists the tenants surviving under root and finishes any
// interrupted create or drop it finds: ".drop-" tombstones are deleted, and
// directories that never published a checkpoint (a create killed before its
// initial checkpoint) are removed. It creates root if missing and refuses
// it as CheckTenantRoot does. The removed list names the debris cleaned up,
// for logging. fsys nil selects the OS filesystem.
func ScanTenantRoot(fsys FS, root string) (tenants, removed []string, err error) {
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	if err := CheckTenantRoot(fsys, root); err != nil {
		return nil, nil, err
	}
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, dropPrefix) {
			if err := fsys.RemoveAll(filepath.Join(root, name)); err != nil {
				return nil, nil, fmt.Errorf("wal: finishing interrupted drop of %s: %w", name, err)
			}
			removed = append(removed, name)
			continue
		}
		if ValidTenantName(name) != nil {
			continue // foreign directory: not ours to touch
		}
		dir := filepath.Join(root, name)
		isDB, derr := isDatabase(fsys, dir)
		if derr != nil {
			return nil, nil, derr
		}
		if !isDB {
			// A tenant directory without a checkpoint can only be a create
			// that was killed before publishing its initial checkpoint: the
			// tenant never existed. Remove the debris.
			if err := fsys.RemoveAll(dir); err != nil {
				return nil, nil, fmt.Errorf("wal: removing partial create %s: %w", name, err)
			}
			removed = append(removed, name)
			continue
		}
		tenants = append(tenants, name)
	}
	return tenants, removed, nil
}

// DropTenant removes a tenant's database directory crash-safely: the
// directory is first renamed to a tombstone (the atomic point of no return
// — after it the tenant no longer exists, whatever happens next) and the
// tombstone is then deleted. A crash between the two steps leaves only the
// tombstone for ScanTenantRoot to clean up. The tenant's DB must already be
// closed. fsys nil selects the OS filesystem.
func DropTenant(fsys FS, root, name string) error {
	if fsys == nil {
		fsys = OSFS
	}
	if err := ValidTenantName(name); err != nil {
		return err
	}
	dir := filepath.Join(root, name)
	tomb := filepath.Join(root, dropPrefix+name)
	// A leftover tombstone from an earlier interrupted drop of a same-named
	// tenant would make the rename fail on some platforms; clear it first.
	if err := fsys.RemoveAll(tomb); err != nil {
		return err
	}
	if err := fsys.Rename(dir, tomb); err != nil {
		return err
	}
	if err := fsys.SyncDir(root); err != nil {
		return err
	}
	return fsys.RemoveAll(tomb)
}
