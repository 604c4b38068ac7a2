package xmltree

// CheckKids is checkKids for the external tests.
var CheckKids = checkKids
