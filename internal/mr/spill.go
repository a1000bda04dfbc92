package mr

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Grouping is sort-merge, spilled or not: a partition buffers its pairs in
// arrival order, and reduce time sorts the buffer by (key, record index,
// emission index) and walks it group by group. When a run exceeds its memory
// budget the partition writes the sorted buffer out as one run file of
// length-prefixed frames and keeps going; reduce time is then a k-way merge
// of the partition's runs with the sorted buffer — the same walk over more
// cursors — so a spilled run produces byte-identical output to an unbounded
// one.

// streamPair is an intermediate pair tagged with its provenance: the input
// record it was emitted from and the emission index within that record. The
// tag makes reduce-time value order deterministic regardless of map
// parallelism and scheduling.
type streamPair struct {
	Pair
	rec  int64
	emit int32
}

// comparePairs orders pairs by (key, record index, emission index).
func comparePairs(a, b *streamPair) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rec, b.rec); c != 0 {
		return c
	}
	return cmp.Compare(a.emit, b.emit)
}

// sortPairs sorts into the merge order. Provenance tags are unique within a
// run, so the order is total and an unstable sort is deterministic.
func sortPairs(pairs []streamPair) {
	slices.SortFunc(pairs, func(a, b streamPair) int { return comparePairs(&a, &b) })
}

// spillRun is one sorted run file of a partition.
type spillRun struct {
	path  string
	bytes int64 // file bytes written
}

// writeSpillRun sorts the pairs and writes them as one run file.
func writeSpillRun(dir string, partition, seq int, pairs []streamPair) (spillRun, error) {
	sortPairs(pairs)
	run := spillRun{path: filepath.Join(dir, fmt.Sprintf("p%06d-r%06d.run", partition, seq))}
	f, err := os.Create(run.path)
	if err != nil {
		return run, fmt.Errorf("mr: creating spill run: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		run.bytes += int64(n)
		_, werr := w.Write(scratch[:n])
		return werr
	}
	writeFrame := func(p *streamPair) error {
		if werr := put(uint64(len(p.Key))); werr != nil {
			return werr
		}
		if _, werr := w.WriteString(p.Key); werr != nil {
			return werr
		}
		if werr := put(uint64(len(p.Value))); werr != nil {
			return werr
		}
		if _, werr := w.Write(p.Value); werr != nil {
			return werr
		}
		if werr := put(uint64(p.rec)); werr != nil {
			return werr
		}
		if werr := put(uint64(p.emit)); werr != nil {
			return werr
		}
		run.bytes += int64(len(p.Key) + len(p.Value))
		return nil
	}
	for i := range pairs {
		if err = writeFrame(&pairs[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(run.path)
		return run, fmt.Errorf("mr: writing spill run: %w", err)
	}
	return run, nil
}

// pairCursor yields streamPairs in merge order from one source: a run file
// or the sorted in-memory buffer.
type pairCursor interface {
	// next advances to the next pair, returning io.EOF at the end.
	next() (streamPair, error)
	// keyRun returns how many pairs, counting the one next just returned,
	// the cursor knows to share that pair's key; 1 when it cannot tell.
	keyRun() int
	close() error
}

// runCursor reads one spill run back. The file's bytes are not trusted: a
// length prefix is checked against what is left of the bytes the run was
// written with before anything is allocated for it, so a torn or corrupted
// run is an error, not a panic.
type runCursor struct {
	f    *os.File
	r    *bufio.Reader
	left int64 // of the run's written bytes, those not yet consumed
	err  error // the first read error; every later read is a no-op
}

func openRun(run spillRun) (*runCursor, error) {
	f, err := os.Open(run.path)
	if err != nil {
		return nil, fmt.Errorf("mr: opening spill run: %w", err)
	}
	return &runCursor{f: f, r: bufio.NewReaderSize(f, 64<<10), left: run.bytes}, nil
}

func (c *runCursor) next() (p streamPair, _ error) {
	klen := c.uvarint()
	if c.err == io.EOF {
		return p, io.EOF // a run ends between frames, nowhere else
	}
	p.Key = string(c.bytes(klen))
	p.Value = c.bytes(c.uvarint())
	p.rec, p.emit = int64(c.uvarint()), int32(c.uvarint())
	if c.err == io.EOF {
		c.err = io.ErrUnexpectedEOF
	}
	if c.err != nil {
		return streamPair{}, fmt.Errorf("mr: reading spill run: %w", c.err)
	}
	return p, nil
}

func (c *runCursor) uvarint() (v uint64) {
	if c.err == nil {
		v, c.err = binary.ReadUvarint(c.r)
		c.left -= int64(bits.Len64(v|1)+6) / 7 // its canonical encoded length: never more than was read
	}
	return v
}

func (c *runCursor) bytes(n uint64) []byte {
	if c.err == nil && n > uint64(c.left) {
		c.err = fmt.Errorf("a %d-byte field with %d bytes left in the run", n, c.left)
	}
	if c.err != nil {
		return nil
	}
	buf := make([]byte, n)
	_, c.err = io.ReadFull(c.r, buf)
	c.left -= int64(n)
	return buf
}

func (c *runCursor) keyRun() int  { return 1 }
func (c *runCursor) close() error { return c.f.Close() }

// memCursor yields a sorted in-memory pair slice.
type memCursor struct {
	pairs []streamPair
	i     int
}

func (c *memCursor) next() (streamPair, error) {
	if c.i >= len(c.pairs) {
		return streamPair{}, io.EOF
	}
	p := c.pairs[c.i]
	c.i++
	return p, nil
}

func (c *memCursor) keyRun() int {
	n := 1
	for _, p := range c.pairs[c.i:] {
		if p.Key != c.pairs[c.i-1].Key {
			break
		}
		n++
	}
	return n
}

func (c *memCursor) close() error { return nil }

// mergeHeap is a min-heap of cursors ordered by their buffered head pairs.
type mergeHeap struct {
	heads   []streamPair
	cursors []pairCursor
}

func (h *mergeHeap) swap(i, j int) {
	h.heads[i], h.heads[j] = h.heads[j], h.heads[i]
	h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i]
}

// down restores the heap order below position i.
func (h *mergeHeap) down(i int) {
	for {
		least := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(h.heads); child++ {
			if comparePairs(&h.heads[child], &h.heads[least]) < 0 {
				least = child
			}
		}
		if least == i {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// mergePairs streams the union of the cursors in (key, rec, emit) order,
// invoking fn once per key with the values in deterministic order. It takes
// over the cursors slice, closes each cursor as soon as it is exhausted — so
// a group's reduce call does not hold the files its values came from — and
// closes the rest before returning.
func mergePairs(cursors []pairCursor, fn func(key string, values [][]byte) error) error {
	// The heap is filtered into the front of cursors: it never holds more
	// cursors than have been read, so it overwrites no unread one.
	h := mergeHeap{heads: make([]streamPair, 0, len(cursors)), cursors: cursors[:0]}
	defer func() {
		for _, c := range h.cursors {
			c.close()
		}
	}()
	for i, c := range cursors {
		p, err := c.next()
		if err != nil {
			c.close()
			if err == io.EOF {
				continue
			}
			for _, unread := range cursors[i+1:] {
				unread.close()
			}
			return err
		}
		h.heads, h.cursors = append(h.heads, p), append(h.cursors, c)
	}
	for i := len(h.heads)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	var key string
	var values [][]byte // nil until the first group opens
	for len(h.heads) > 0 {
		p := h.heads[0]
		if values == nil || p.Key != key {
			if values != nil {
				if err := fn(key, values); err != nil {
					return err
				}
			}
			// Size the group from what its first cursor can see: with no
			// spill run that is the whole group.
			key, values = p.Key, make([][]byte, 0, h.cursors[0].keyRun())
		}
		values = append(values, p.Value)
		np, err := h.cursors[0].next()
		switch {
		case err == io.EOF:
			h.cursors[0].close()
			last := len(h.heads) - 1
			h.swap(0, last)
			h.heads, h.cursors = h.heads[:last], h.cursors[:last]
		case err != nil:
			return err
		default:
			h.heads[0] = np
		}
		h.down(0)
	}
	if values == nil {
		return nil
	}
	return fn(key, values)
}
