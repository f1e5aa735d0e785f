package main

import (
	"fmt"
	"strconv"

	"maxoid/internal/sqldb"
)

// parseRows decodes the gateway's query response,
// {"columns":[...],"rows":[[...],...]}, whose values are integers,
// strings or null. It is a direct scanner rather than encoding/json,
// because the client shares the CPUs with the system it measures and
// reflection-based decoding of a whole-table list costs as much as
// serving it.
func parseRows(b []byte) ([]string, [][]sqldb.Value, error) {
	p := &rowParser{b: b}
	p.expect('{')
	var cols []string
	var rows [][]sqldb.Value
	for p.err == nil {
		key := p.str()
		p.expect(':')
		switch key {
		case "columns":
			p.array(func() { cols = append(cols, p.str()) })
		case "rows":
			p.array(func() {
				row := make([]sqldb.Value, 0, len(cols))
				p.array(func() { row = append(row, p.value()) })
				rows = append(rows, row)
			})
		default:
			p.fail("unexpected key %q", key)
		}
		if !p.more('}') {
			break
		}
	}
	if p.err == nil && p.i != len(p.b) {
		p.fail("trailing bytes")
	}
	return cols, rows, p.err
}

type rowParser struct {
	b   []byte
	i   int
	err error
}

func (p *rowParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("response at byte %d: %s", p.i, fmt.Sprintf(format, args...))
	}
	p.i = len(p.b)
}

func (p *rowParser) expect(c byte) {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return
	}
	p.fail("want %q", c)
}

// more consumes a ',' (true) or the closing byte (false).
func (p *rowParser) more(end byte) bool {
	if p.i < len(p.b) && p.b[p.i] == ',' {
		p.i++
		return true
	}
	p.expect(end)
	return false
}

// array calls elem for each element of a JSON array.
func (p *rowParser) array(elem func()) {
	p.expect('[')
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return
	}
	for p.err == nil {
		elem()
		if !p.more(']') {
			return
		}
	}
}

func (p *rowParser) str() string {
	p.expect('"')
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		if p.b[p.i] == '\\' {
			// Escapes do not occur in the benchmark's tables; decode
			// the rare one the slow way.
			p.i = start - 1
			return p.escaped()
		}
		p.i++
	}
	s := string(p.b[start:p.i])
	p.expect('"')
	return s
}

func (p *rowParser) escaped() string {
	end := p.i + 1
	for end < len(p.b) && p.b[end] != '"' {
		if p.b[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(p.b) {
		p.fail("unterminated string")
		return ""
	}
	s, err := strconv.Unquote(string(p.b[p.i : end+1]))
	if err != nil {
		p.fail("%v", err)
		return ""
	}
	p.i = end + 1
	return s
}

func (p *rowParser) value() sqldb.Value {
	if p.i >= len(p.b) {
		p.fail("want a value")
		return nil
	}
	switch c := p.b[p.i]; {
	case c == '"':
		return p.str()
	case c == 'n':
		if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
			p.i += 4
			return nil
		}
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.i
		for p.i < len(p.b) && (p.b[p.i] == '-' || (p.b[p.i] >= '0' && p.b[p.i] <= '9')) {
			p.i++
		}
		n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
		if err != nil {
			p.fail("%v", err)
			return nil
		}
		return n
	}
	p.fail("unsupported value")
	return nil
}
