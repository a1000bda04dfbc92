package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// A run that spills writes every run of every reducer into one file, created
// on its first spill in a private directory. A run is what a reducer's buffer
// held when it spilled, one frame per copy, in arrival order:
//
//	uvarint(record index) uvarint(len(data)) data
//
// Each run is written at the offset reserved for it, the end of the run
// before it, and where it lies is kept with its reducer. Reading a reducer's
// copies back is its runs, in order, then what is left in its buffer: the
// routing goroutine appends copies in index order, so that is index order,
// with nothing to sort or merge.

// spillFile is the one spill file of a run.
type spillFile struct {
	dir string // the run's private mr-spill-* directory
	f   *os.File
	w   *bufio.Writer                   // pooled, writing at the reserved offsets; nil once finished
	end int64                           // the offset reserved for the next run
	hdr [2 * binary.MaxVarintLen64]byte // a frame's header, being written
}

// spillRun is one run: a section of the spill file.
type spillRun struct {
	off, bytes int64
}

// createSpillFile makes a private directory under parent and the spill file
// in it.
func createSpillFile(parent string) (*spillFile, error) {
	// benchmark/ finds leaked spill directories by this prefix.
	dir, err := os.MkdirTemp(parent, "mr-spill-")
	if err != nil {
		return nil, fmt.Errorf("creating spill directory: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs"), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("creating spill file: %w", err)
	}
	return &spillFile{dir: dir, f: f, w: getRunWriter(io.NewOffsetWriter(f, 0))}, nil
}

// appendRun writes recs as one run at the end of the file. The frames go
// through the writer's buffer; finish writes out what is left in it.
func (s *spillFile) appendRun(recs []Record) (spillRun, error) {
	run := spillRun{off: s.end}
	for _, rec := range recs {
		h := binary.AppendUvarint(s.hdr[:0], uint64(rec.ID))
		h = binary.AppendUvarint(h, uint64(len(rec.Data)))
		if _, err := s.w.Write(h); err != nil {
			return run, fmt.Errorf("writing spill run: %w", err)
		}
		if _, err := s.w.Write(rec.Data); err != nil {
			return run, fmt.Errorf("writing spill run: %w", err)
		}
		run.bytes += int64(len(h) + len(rec.Data))
	}
	s.end += run.bytes
	return run, nil
}

// finish writes out the buffered frames and gives the buffer back: every run
// is in the file from here on, and nothing more is written.
func (s *spillFile) finish() error {
	err := s.w.Flush()
	putRunWriter(s.w)
	s.w = nil
	if err != nil {
		return fmt.Errorf("writing spill run: %w", err)
	}
	return nil
}

// remove closes the file, deletes the directory, and gives the writer's
// buffer back if finish did not. The file holds nothing that outlives the
// run, so errors have nobody to matter to.
func (s *spillFile) remove() {
	if s.w != nil {
		putRunWriter(s.w)
		s.w = nil
	}
	_ = s.f.Close()
	os.RemoveAll(s.dir)
}

// readRuns appends the copies held in runs to recs, run by run, for a run
// that pulled the given number of records. A reducer's runs are read into one
// buffer (its reduce is about to receive all its copies at once anyway) and
// the copies' data are cut from it. The file's bytes are not trusted: a
// section shorter than its recorded length is an error, not a shorter run,
// and so is a frame that does not fit in what is left of its run, so a length
// prefix is never an allocation. So is a record index not below pulled: the
// reduce indexes the schema's per-input tables with it.
func (s *spillFile) readRuns(recs []Record, runs []spillRun, pulled int) ([]Record, error) {
	var total int64
	for _, run := range runs {
		total += run.bytes
	}
	buf := make([]byte, total)
	for _, run := range runs {
		b := buf[:run.bytes:run.bytes]
		buf = buf[run.bytes:]
		_, err := s.f.ReadAt(b, run.off)
		if err == nil {
			recs, err = decodeRun(recs, b, pulled)
		} else if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return recs, fmt.Errorf("reading spill run: %w", err)
		}
	}
	return recs, nil
}

// decodeRun appends the frames of one run's bytes to recs, refusing a record
// index not below pulled. Their data alias b.
func decodeRun(recs []Record, b []byte, pulled int) ([]Record, error) {
	for len(b) > 0 {
		index, n := binary.Uvarint(b)
		if n <= 0 {
			return recs, frameErr(n)
		}
		b = b[n:]
		size, n := binary.Uvarint(b)
		if n <= 0 {
			return recs, frameErr(n)
		}
		b = b[n:]
		if index >= uint64(pulled) {
			return recs, fmt.Errorf("record index %d out of range: the run pulled %d records", index, pulled)
		}
		if size > uint64(len(b)) {
			return recs, fmt.Errorf("a %d-byte record with %d bytes left in the run", size, len(b))
		}
		recs = append(recs, Record{ID: int(index), Data: b[:size:size]})
		b = b[size:]
	}
	return recs, nil
}

// frameErr is the error of a varint binary.Uvarint could not read: cut short
// (n == 0) or longer than 64 bits.
func frameErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows 64 bits")
}

// The spill file's write buffer is pooled: a run that spills takes one and
// gives it back when its map phase ends, or when it fails.
const runBufferBytes = 64 << 10

var (
	runWriters sync.Pool
	// runBuffersOut counts the buffers taken and not yet returned: zero
	// whenever no run is spilling, which is what the tests hold it to.
	runBuffersOut atomic.Int64
)

func getRunWriter(w io.Writer) *bufio.Writer {
	runBuffersOut.Add(1)
	if bw, _ := runWriters.Get().(*bufio.Writer); bw != nil {
		bw.Reset(w)
		return bw
	}
	return bufio.NewWriterSize(w, runBufferBytes)
}

func putRunWriter(w *bufio.Writer) {
	w.Reset(nil) // drops the file, and a failed write's sticky error
	runWriters.Put(w)
	runBuffersOut.Add(-1)
}
