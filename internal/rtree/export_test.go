package rtree

// What the external tests (package rtree_test: they import
// internal/bench/rstar, which this package cannot) borrow from the
// in-package ones.
var (
	CheckSearchEquivalence = checkSearchEquivalence
	MBRTwin                = mbrTwin
	RandVec                = randVec
	IDSet                  = idSet
	BulkItems              = bulkItems
	ColumnsOf              = columnsOf
)
