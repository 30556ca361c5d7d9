package store

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serializes the store one sequence per line:
//
//	name,v1,v2,...,vn
//
// Names must not contain commas or newlines; WriteCSV reports an error
// if one does.
func (s *Store) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for seq := 0; seq < s.NumSequences(); seq++ {
		name := s.SequenceName(seq)
		if strings.ContainsAny(name, ",\n\r") {
			return fmt.Errorf("store: sequence %d name %q contains a delimiter", seq, name)
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		base := s.offsets[seq]
		pl := s.packedLen(seq)
		for i := 0; i < s.lengths[seq]; i++ {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			v := 0.0
			if i < pl {
				v = s.data[base+i]
			} else {
				v = s.tails[seq][i-pl]
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV into a fresh store.
// Blank lines are skipped; a sequence may be empty (a bare name).  A
// value outside the numeric domain fails the read with a *DomainError.
func ReadCSV(r io.Reader) (*Store, error) {
	st := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		name := fields[0]
		if name == "" {
			return nil, fmt.Errorf("store: line %d: empty sequence name", lineNo)
		}
		if strings.ContainsRune(name, '\r') {
			return nil, fmt.Errorf("store: line %d: sequence name contains a carriage return", lineNo)
		}
		vals := make([]float64, 0, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("store: line %d field %d: %w", lineNo, i+2, err)
			}
			vals = append(vals, v)
		}
		st.AppendSequence(name, vals)
		if _, err := st.Domain(); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: reading CSV: %w", err)
	}
	return st, nil
}
