package xmltree

// CheckKids is checkKids for the external tests.
var CheckKids = checkKids

// LabelWalks returns how many walks of a tree have indexed a label in d's
// lineage: one for each label a reader or the writer indexed, none for a
// label found indexed.
func LabelWalks(d *Document) int64 { return d.labels.want.walks.Load() }

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
