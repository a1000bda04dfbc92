package mr

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Spill-to-disk: when a streaming run exceeds its memory budget, a partition
// dumps its in-memory table as one sorted run file and keeps going. Run
// files hold length-prefixed frames ordered by (key, record index, emission
// index) — the same total order the in-memory path reduces in — so reduce
// time is a k-way merge of the partition's runs plus its in-memory table,
// and a spilled run produces byte-identical output to an unbounded one.

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
	pairs int64
}

// writeSpillRun sorts the pairs and writes them as one run file.
func writeSpillRun(dir string, partition, seq int, pairs []streamPair) (spillRun, error) {
	sortPairs(pairs)
	run := spillRun{
		path:  filepath.Join(dir, fmt.Sprintf("p%06d-r%06d.run", partition, seq)),
		pairs: int64(len(pairs)),
	}
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
// or the in-memory table.
type pairCursor interface {
	// next advances to the next pair, returning io.EOF at the end.
	next() (streamPair, error)
	close() error
}

// runCursor reads one spill run back.
type runCursor struct {
	f *os.File
	r *bufio.Reader
}

func openRun(run spillRun) (*runCursor, error) {
	f, err := os.Open(run.path)
	if err != nil {
		return nil, fmt.Errorf("mr: opening spill run: %w", err)
	}
	return &runCursor{f: f, r: bufio.NewReaderSize(f, 64<<10)}, nil
}

func (c *runCursor) next() (streamPair, error) {
	var p streamPair
	klen, err := binary.ReadUvarint(c.r)
	if err != nil {
		if err == io.EOF {
			return p, io.EOF
		}
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	key := make([]byte, klen)
	if _, err := io.ReadFull(c.r, key); err != nil {
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	vlen, err := binary.ReadUvarint(c.r)
	if err != nil {
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	val := make([]byte, vlen)
	if _, err := io.ReadFull(c.r, val); err != nil {
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	rec, err := binary.ReadUvarint(c.r)
	if err != nil {
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	emit, err := binary.ReadUvarint(c.r)
	if err != nil {
		return p, fmt.Errorf("mr: reading spill run: %w", err)
	}
	p.Key, p.Value, p.rec, p.emit = string(key), val, int64(rec), int32(emit)
	return p, nil
}

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

func (c *memCursor) close() error { return nil }

// mergeHeap is a min-heap of cursors keyed by their buffered head pair.
type mergeHeap struct {
	heads   []streamPair
	cursors []pairCursor
}

func (h *mergeHeap) Len() int           { return len(h.heads) }
func (h *mergeHeap) Less(i, j int) bool { return comparePairs(&h.heads[i], &h.heads[j]) < 0 }
func (h *mergeHeap) Push(x any)         { panic("mr: mergeHeap.Push unused") }
func (h *mergeHeap) Pop() any           { panic("mr: mergeHeap.Pop unused") }
func (h *mergeHeap) Swap(i, j int) {
	h.heads[i], h.heads[j] = h.heads[j], h.heads[i]
	h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i]
}

// mergePairs streams the union of the cursors in (key, rec, emit) order,
// invoking fn once per key with the values in deterministic order. It closes
// every cursor before returning.
func mergePairs(cursors []pairCursor, fn func(key string, values [][]byte) error) error {
	h := &mergeHeap{}
	defer func() {
		for _, c := range h.cursors {
			c.close()
		}
	}()
	for _, c := range cursors {
		p, err := c.next()
		if err == io.EOF {
			c.close()
			continue
		}
		if err != nil {
			c.close()
			return err
		}
		h.heads = append(h.heads, p)
		h.cursors = append(h.cursors, c)
	}
	heap.Init(h)

	var (
		key    string
		values [][]byte
		open   bool
	)
	flush := func() error {
		if !open {
			return nil
		}
		open = false
		return fn(key, values)
	}
	for h.Len() > 0 {
		p := h.heads[0]
		if !open || p.Key != key {
			if err := flush(); err != nil {
				return err
			}
			key, values, open = p.Key, nil, true
		}
		values = append(values, p.Value)
		np, err := h.cursors[0].next()
		switch {
		case err == io.EOF:
			h.cursors[0].close()
			n := h.Len() - 1
			h.Swap(0, n)
			h.heads = h.heads[:n]
			h.cursors = h.cursors[:n]
			if n > 0 {
				heap.Fix(h, 0)
			}
		case err != nil:
			return err
		default:
			h.heads[0] = np
			heap.Fix(h, 0)
		}
	}
	return flush()
}
