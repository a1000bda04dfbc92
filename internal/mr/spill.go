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
	"sync"
	"sync/atomic"
)

// Grouping is sort-merge, spilled or not: a partition buffers its pairs in
// arrival order, and reduce time sorts the buffer by (key, record index,
// emission index) and walks it group by group. When a run exceeds its memory
// budget the partition appends the sorted buffer to its spill file as one run
// of length-prefixed frames and keeps going; reduce time is then a k-way merge
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

// spillFile is a partition's append-only spill file: its sorted runs back to
// back, in the order they were spilled, and where each one lies. The file is
// created on the partition's first spill and stays open until the partition
// is done, so a partition costs one descriptor however many runs it wrote.
type spillFile struct {
	f    *os.File
	runs []spillRun // contiguous from offset 0: the next run starts where the last ends
}

// spillRun is one sorted run: a section of its partition's spill file.
type spillRun struct {
	off, bytes int64
}

func createSpillFile(dir string, partition int) (*spillFile, error) {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("p%06d.spill", partition)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("mr: creating spill file: %w", err)
	}
	return &spillFile{f: f}, nil
}

// close releases the descriptor. The file holds nothing that outlives the
// run, and every run in it has been read back or abandoned by now, so a
// close error has nobody to matter to.
func (s *spillFile) close() { _ = s.f.Close() }

// uvarintLen is the encoded length of v.
func uvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// appendRun sorts the pairs and appends them to the file as one run of
// length-prefixed frames.
func (s *spillFile) appendRun(pairs []streamPair) (spillRun, error) {
	sortPairs(pairs)
	var run spillRun
	if n := len(s.runs); n > 0 {
		run.off = s.runs[n-1].off + s.runs[n-1].bytes
	}
	for i := range pairs {
		p := &pairs[i]
		run.bytes += uvarintLen(uint64(len(p.Key))) + int64(len(p.Key)) +
			uvarintLen(uint64(len(p.Value))) + int64(len(p.Value)) +
			uvarintLen(uint64(p.rec)) + uvarintLen(uint64(p.emit))
	}
	w := getRunWriter(s.f, run.bytes)
	defer putRunWriter(w)
	// Write errors are sticky in a bufio.Writer: Flush reports the first.
	var scratch [binary.MaxVarintLen64]byte
	for i := range pairs {
		p := &pairs[i]
		w.Write(binary.AppendUvarint(scratch[:0], uint64(len(p.Key))))
		w.WriteString(p.Key)
		w.Write(binary.AppendUvarint(scratch[:0], uint64(len(p.Value))))
		w.Write(p.Value)
		w.Write(binary.AppendUvarint(scratch[:0], uint64(p.rec)))
		w.Write(binary.AppendUvarint(scratch[:0], uint64(p.emit)))
	}
	if err := w.Flush(); err != nil {
		// Part of the run may be in the file, past the last indexed run:
		// the error fails the Run call, so nothing is appended behind it.
		return run, fmt.Errorf("mr: writing spill run: %w", err)
	}
	s.runs = append(s.runs, run)
	return run, nil
}

// Run buffers are pooled, and sized to the run they serve: a fully spilled
// partition reads all of its runs at once, and a run is often far smaller than
// the 64 KiB that is worth buffering of a large one. Class c holds buffers of
// 1<<(c+minRunBufBits) bytes.
const (
	minRunBufBits = 6
	maxRunBufBits = 16
)

var (
	runReaders, runWriters [maxRunBufBits - minRunBufBits + 1]sync.Pool
	// runBuffersOut counts the buffers taken and not yet returned: zero
	// whenever no run is in flight, which is what the tests hold it to.
	runBuffersOut atomic.Int64
)

// runBufClass is the smallest class whose buffers hold n bytes, or the
// largest class.
func runBufClass(n int64) int {
	return min(max(bits.Len64(uint64(max(n, 1)-1)), minRunBufBits), maxRunBufBits) - minRunBufBits
}

func getRunWriter(f io.Writer, runBytes int64) *bufio.Writer {
	runBuffersOut.Add(1)
	c := runBufClass(runBytes)
	if w, _ := runWriters[c].Get().(*bufio.Writer); w != nil {
		w.Reset(f)
		return w
	}
	return bufio.NewWriterSize(f, 1<<(c+minRunBufBits))
}

func putRunWriter(w *bufio.Writer) {
	w.Reset(nil) // drops the file, and a failed write's sticky error
	runWriters[runBufClass(int64(w.Size()))].Put(w)
	runBuffersOut.Add(-1)
}

func getRunReader(src io.Reader, runBytes int64) *bufio.Reader {
	runBuffersOut.Add(1)
	c := runBufClass(runBytes)
	if r, _ := runReaders[c].Get().(*bufio.Reader); r != nil {
		r.Reset(src)
		return r
	}
	return bufio.NewReaderSize(src, 1<<(c+minRunBufBits))
}

func putRunReader(r *bufio.Reader) {
	r.Reset(nil)
	runReaders[runBufClass(int64(r.Size()))].Put(r)
	runBuffersOut.Add(-1)
}

// pairCursor yields streamPairs in merge order from one source: a spilled run
// or the sorted in-memory buffer.
type pairCursor interface {
	// next advances to the next pair, returning io.EOF at the end.
	next() (streamPair, error)
	// keyRun returns how many pairs, counting the one next just returned,
	// the cursor knows to share that pair's key; 1 when it cannot tell.
	keyRun() int
	// close releases what the cursor holds; closing twice is harmless.
	close()
}

// runCursor reads one spill run back through a section of the partition's
// file. The file's bytes are not trusted: a length prefix is checked against
// what is left of the bytes the run was written with before anything is
// allocated for it, and a run that ends before those bytes are used up — the
// file is shorter than its index says, or was cut on a frame boundary — has
// lost pairs, so a torn or corrupted run is an error, not a panic and not a
// shorter run.
type runCursor struct {
	sec  io.SectionReader
	r    *bufio.Reader // pooled; nil once closed
	left int64         // of the run's written bytes, those not yet consumed
	err  error         // the first read error; every later read is a no-op
}

// open starts a cursor over one of the file's runs.
func (s *spillFile) open(run spillRun) *runCursor {
	c := &runCursor{sec: *io.NewSectionReader(s.f, run.off, run.bytes), left: run.bytes}
	c.r = getRunReader(&c.sec, run.bytes)
	return c
}

func (c *runCursor) next() (p streamPair, _ error) {
	klen := c.uvarint()
	if c.err == io.EOF && c.left == 0 {
		return p, io.EOF // a run ends between frames, with its bytes used up, nowhere else
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
	if c.err != nil {
		return 0
	}
	if v, c.err = binary.ReadUvarint(c.r); c.err == nil {
		c.left -= uvarintLen(v) // its canonical encoded length: never more than was read
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

func (c *runCursor) keyRun() int { return 1 }

func (c *runCursor) close() {
	if c.r != nil {
		putRunReader(c.r)
		c.r = nil
	}
}

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

func (c *memCursor) close() {}

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
// a group's reduce call does not hold the buffers its values came through —
// and closes the rest before returning.
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
