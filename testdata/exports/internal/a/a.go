// Package a is the fixture's production package for
// TestUncalledExportsFixture: of its exports, only Uncalled is reported.
package a

import "fmt"

// Used has a caller in the fixture's command.
func Used() string { return fmt.Sprint(T{}) }

// Uncalled has a caller in a test only.
func Uncalled() {}

// Instrument has no caller, and the scan's exceptions name it.
func Instrument() {}

// T is used by Used; its String method is reached only through
// fmt.Stringer.
type T struct{}

func (T) String() string { return "t" }
