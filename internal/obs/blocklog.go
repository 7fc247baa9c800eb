package obs

// Block sizes of a blockLog, in entries: the first block is small, so
// a short session (a pilot bring-up, a unit test) pays for a few dozen
// entries, and each later block doubles up to maxBlock, so a long one
// opens a block every maxBlock entries.
const (
	firstBlock = 64
	maxBlock   = 4096
)

// blockLog is an append-only log kept in fixed-capacity blocks. Growing
// it opens a new block and never copies the entries already written, so
// a recording of n entries allocates about n entries in all, not the
// several-fold total of a slice growing by reallocation.
type blockLog[T any] struct {
	blocks [][]T
	n      int // entries in all blocks
}

// add appends v; it allocates only when the last block is full.
func (l *blockLog[T]) add(v T) {
	k := len(l.blocks)
	if k == 0 || len(l.blocks[k-1]) == cap(l.blocks[k-1]) {
		size := firstBlock
		if k > 0 {
			size = min(2*cap(l.blocks[k-1]), maxBlock)
		}
		l.blocks = append(l.blocks, make([]T, 0, size))
		k++
	}
	l.blocks[k-1] = append(l.blocks[k-1], v)
	l.n++
}

// last returns the most recent entry (the zero value when empty).
func (l *blockLog[T]) last() T {
	var zero T
	if l.n == 0 {
		return zero
	}
	b := l.blocks[len(l.blocks)-1]
	return b[len(b)-1]
}
