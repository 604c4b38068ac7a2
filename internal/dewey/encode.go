package dewey

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Dict maps labels to small integer codes so that encoded IDs stay compact.
// The zero value is ready to use. Dict is not safe for concurrent mutation.
type Dict struct {
	codes  map[string]uint64
	labels []string
}

// Code returns the code for label, assigning a fresh one if needed.
func (d *Dict) Code(label string) uint64 {
	if d.codes == nil {
		d.codes = make(map[string]uint64)
	}
	if c, ok := d.codes[label]; ok {
		return c
	}
	c := uint64(len(d.labels))
	d.codes[label] = c
	d.labels = append(d.labels, label)
	return c
}

// Label returns the label for a code.
func (d *Dict) Label(code uint64) (string, error) {
	if code >= uint64(len(d.labels)) {
		return "", fmt.Errorf("dewey: unknown label code %d", code)
	}
	return d.labels[code], nil
}

// Len returns the number of distinct labels registered.
func (d *Dict) Len() int { return len(d.labels) }

// Encode appends a compact binary encoding of id to dst and returns the
// extended slice. Labels are replaced by dictionary codes; ordinals use
// varint components.
func (id ID) Encode(d *Dict, dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(id.Level()))
	for c := id.Cursor(); c.Next(); {
		dst = binary.AppendUvarint(dst, d.Code(c.Label()))
		var buf [4]uint64
		ord := c.AppendOrd(buf[:0])
		dst = binary.AppendUvarint(dst, uint64(len(ord)))
		for _, v := range ord {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// Decode parses an ID previously produced by Encode, returning the ID and
// the number of bytes consumed.
func Decode(d *Dict, src []byte) (ID, int, error) {
	pos := 0
	n, k := binary.Uvarint(src[pos:])
	if k <= 0 {
		return ID{}, 0, errors.New("dewey: truncated step count")
	}
	pos += k
	// Every step costs at least two bytes (label code + ordinal length), so
	// a count beyond half the remaining input cannot be satisfied.
	if n > uint64(len(src)-pos)/2 {
		return ID{}, 0, errors.New("dewey: implausible step count")
	}
	var key []byte
	for i := uint64(0); i < n; i++ {
		code, k := binary.Uvarint(src[pos:])
		if k <= 0 {
			return ID{}, 0, errors.New("dewey: truncated label code")
		}
		pos += k
		label, err := d.Label(code)
		if err != nil {
			return ID{}, 0, err
		}
		m, k := binary.Uvarint(src[pos:])
		if k <= 0 {
			return ID{}, 0, errors.New("dewey: truncated ordinal length")
		}
		pos += k
		if m > uint64(len(src)-pos) {
			return ID{}, 0, errors.New("dewey: implausible ordinal length")
		}
		ord := make(Ord, 0, m)
		for j := uint64(0); j < m; j++ {
			c, k := binary.Uvarint(src[pos:])
			if k <= 0 {
				return ID{}, 0, errors.New("dewey: truncated ordinal component")
			}
			pos += k
			ord = append(ord, c)
		}
		key = AppendFrame(key, Code(label), label, ord)
	}
	return ID{key: string(key)}, pos, nil
}
