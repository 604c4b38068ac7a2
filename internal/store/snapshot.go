package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
)

// Snapshot encoding: a compact binary image of a view's rows, with a shared
// label dictionary so structural IDs stay small — the paper's observation
// that views carrying only IDs are standalone artifacts that can be laid
// out on disk.

const snapshotMagic = "XIVM1"

// EncodeSnapshot serializes the view's live rows.
func EncodeSnapshot(v *View) []byte {
	var out bytes.Buffer
	WriteSnapshot(&out, v) // a bytes.Buffer does not fail
	return out.Bytes()
}

// WriteSnapshot streams what EncodeSnapshot returns: w (itself when it is a
// *bufio.Writer, which is then flushed) sees the image a buffer at a time.
func WriteSnapshot(w io.Writer, v *View) error {
	// The dictionary precedes the rows that use it, so a first pass hands
	// the labels their codes, in the order the rows will meet them.
	var dict dewey.Dict
	v.Each(func(r algebra.Row) bool {
		for _, e := range r.Entries {
			for c := e.ID.Cursor(); c.Next(); {
				dict.Code(c.Label())
			}
		}
		return true
	})
	bw := bufio.NewWriter(w)
	// Header: magic, dictionary, then body.
	buf := []byte(snapshotMagic)
	buf = binary.AppendUvarint(buf, uint64(dict.Len()))
	for i := 0; i < dict.Len(); i++ {
		label, _ := dict.Label(uint64(i))
		buf = appendString(buf, label)
	}
	buf = binary.AppendUvarint(buf, uint64(v.Len()))
	bw.Write(buf)
	v.Each(func(r algebra.Row) bool {
		buf = binary.AppendUvarint(buf[:0], uint64(r.Count))
		buf = binary.AppendUvarint(buf, uint64(len(r.Entries)))
		for _, e := range r.Entries {
			buf = binary.AppendUvarint(buf, uint64(e.NodeIdx))
			buf = e.ID.Encode(&dict, buf)
			buf = appendString(buf, e.Val)
			buf = appendString(buf, e.Cont)
		}
		bw.Write(buf)
		return true
	})
	return bw.Flush()
}

// EncodeView is EncodeSnapshot with observability: the store's
// store.snapshot.bytes counter accumulates the encoded size.
func (s *Store) EncodeView(v *View) []byte {
	data := EncodeSnapshot(v)
	s.snapshotBytes.Add(int64(len(data)))
	return data
}

// DecodeSnapshot restores rows previously encoded with EncodeSnapshot.
func DecodeSnapshot(data []byte) ([]algebra.Row, error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("store: bad snapshot magic")
	}
	pos := len(snapshotMagic)
	nLabels, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, errors.New("store: truncated label count")
	}
	pos += k
	// Length-sanity rule, applied to every count decoded below: each
	// counted element occupies at least one byte of the remaining input, so
	// any count exceeding it proves corruption. Rejecting before the make
	// turns a forged multi-gigabyte count into an error instead of an
	// allocation blow-up.
	if nLabels > uint64(len(data)-pos) {
		return nil, errors.New("store: implausible label count")
	}
	var dict dewey.Dict
	for i := uint64(0); i < nLabels; i++ {
		s, n, err := readString(data[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		dict.Code(s)
	}
	nRows, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, errors.New("store: truncated row count")
	}
	pos += k
	// A row costs at least two bytes (count + entry count).
	if nRows > uint64(len(data)-pos)/2 {
		return nil, errors.New("store: implausible row count")
	}
	rows := make([]algebra.Row, 0, nRows)
	for i := uint64(0); i < nRows; i++ {
		count, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, errors.New("store: truncated count")
		}
		pos += k
		if count > 1<<40 {
			return nil, errors.New("store: implausible derivation count")
		}
		nEnt, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, errors.New("store: truncated entry count")
		}
		pos += k
		// An entry costs at least four bytes (node index, ID step count,
		// two string lengths).
		if nEnt > uint64(len(data)-pos)/4 {
			return nil, errors.New("store: implausible entry count")
		}
		r := algebra.Row{Count: int(count), Entries: make([]algebra.RowEntry, 0, nEnt)}
		for j := uint64(0); j < nEnt; j++ {
			idx, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, errors.New("store: truncated node index")
			}
			pos += k
			// Pattern node indexes live in a uint64 bitmask, so 64 bounds
			// every legitimate snapshot.
			if idx >= 64 {
				return nil, errors.New("store: implausible node index")
			}
			id, n, err := dewey.Decode(&dict, data[pos:])
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			pos += n
			val, n, err := readString(data[pos:])
			if err != nil {
				return nil, err
			}
			pos += n
			cont, n, err := readString(data[pos:])
			if err != nil {
				return nil, err
			}
			pos += n
			r.Entries = append(r.Entries, algebra.RowEntry{NodeIdx: int(idx), ID: id, Val: val, Cont: cont})
		}
		rows = append(rows, r)
	}
	if pos != len(data) {
		return nil, errors.New("store: trailing bytes after snapshot body")
	}
	return rows, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(src []byte) (string, int, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", 0, errors.New("store: truncated string length")
	}
	if uint64(len(src)-k) < n {
		return "", 0, errors.New("store: truncated string body")
	}
	return string(src[k : k+int(n)]), k + int(n), nil
}
