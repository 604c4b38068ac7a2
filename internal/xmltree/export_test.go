package xmltree

// CheckKids is checkKids for the external tests.
var CheckKids = checkKids

// IndexedLabels returns the labels d's index holds, in label order, an
// emptied list's label included.
func IndexedLabels(d *Document) []string {
	var labels []string
	li := d.labels.li.Load()
	if li == nil {
		return nil
	}
	li.lists.Chunks().Each(func(l *labelList) bool {
		labels = append(labels, l.label)
		return true
	})
	return labels
}
