package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// WriteCSV writes the table to w with a typed header line of the form
// "name:KIND" per column. NULLs render as empty fields; strings are
// CSV-quoted by the encoder as needed.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.schema.Len())
	for i, c := range t.schema.Columns {
		header[i] = c.Name + ":" + kindTag(c.Type)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	v := t.View()
	rows := v.Rows() // w may block: write with the view closed
	v.Close()
	for _, row := range rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = csvField(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV builds a table named name from CSV produced by WriteCSV (or
// hand-written CSV with the same typed header).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: reading CSV header: %w", err)
	}
	cols := make([]sqltypes.Column, len(header))
	for i, h := range header {
		parts := strings.SplitN(h, ":", 2)
		kind := sqltypes.KindString
		if len(parts) == 2 {
			k, err := kindFromTag(parts[1])
			if err != nil {
				return nil, err
			}
			kind = k
		}
		cols[i] = sqltypes.Column{Table: name, Name: strings.TrimSpace(parts[0]), Type: kind}
	}
	t := NewTable(name, sqltypes.NewSchema(cols...))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: reading CSV line %d: %w", line, err)
		}
		line++
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("storage: CSV line %d has %d fields, want %d", line, len(rec), len(cols))
		}
		row := make(sqltypes.Row, len(rec))
		for i, field := range rec {
			v, err := parseField(field, cols[i].Type)
			if err != nil {
				return nil, fmt.Errorf("storage: CSV line %d column %q: %w", line, cols[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func kindTag(k sqltypes.Kind) string {
	switch k {
	case sqltypes.KindInt:
		return "INT"
	case sqltypes.KindFloat:
		return "FLOAT"
	case sqltypes.KindBool:
		return "BOOL"
	default:
		return "STRING"
	}
}

func kindFromTag(tag string) (sqltypes.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(tag)) {
	case "INT", "INTEGER":
		return sqltypes.KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return sqltypes.KindFloat, nil
	case "BOOL", "BOOLEAN":
		return sqltypes.KindBool, nil
	case "STRING", "VARCHAR", "TEXT":
		return sqltypes.KindString, nil
	default:
		return sqltypes.KindNull, fmt.Errorf("storage: unknown CSV type tag %q", tag)
	}
}

func csvField(v sqltypes.Value) string {
	if v.IsNull() {
		return ""
	}
	switch v.Kind() {
	case sqltypes.KindString:
		return v.Str()
	case sqltypes.KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case sqltypes.KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case sqltypes.KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

func parseField(field string, kind sqltypes.Kind) (sqltypes.Value, error) {
	if field == "" {
		return sqltypes.Null, nil
	}
	switch kind {
	case sqltypes.KindInt:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(n), nil
	case sqltypes.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(f), nil
	case sqltypes.KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(b), nil
	default:
		return sqltypes.NewString(field), nil
	}
}
