// Package b does not type-check: the scan must fail rather than see less.
package b

// Uncalled would be reported if the scan swallowed the error below.
func Uncalled() {}

var x int = "not an int"
