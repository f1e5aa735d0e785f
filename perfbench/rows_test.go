package main

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestParseRowsMatchesEncodingJSON(t *testing.T) {
	body := []byte(`{"columns":["_id","title","_data","n"],"rows":[[1,"t1","/a/b.jpg",null],[-20,"q\"x","",7],[3,"","é",0]]}`)
	cols, rows, err := parseRows(body)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cols) != fmt.Sprint(want.Columns) || len(rows) != len(want.Rows) {
		t.Fatalf("parsed %v %v, want %v %v", cols, rows, want.Columns, want.Rows)
	}
	for i, row := range rows {
		for j, v := range row {
			w := want.Rows[i][j]
			if f, ok := w.(float64); ok {
				w = int64(f)
			}
			if v != w {
				t.Fatalf("row %d col %d = %#v, want %#v", i, j, v, w)
			}
		}
	}
	for _, bad := range []string{``, `{`, `{"rows":[[1,]]}`, `{"columns":["a"]} x`, `{"rows":[[tru]]}`} {
		if _, _, err := parseRows([]byte(bad)); err == nil {
			t.Fatalf("parseRows(%q) accepted malformed input", bad)
		}
	}
	if _, rows, err := parseRows([]byte(`{"columns":[],"rows":[]}`)); err != nil || len(rows) != 0 {
		t.Fatalf("empty result: %v, %v", rows, err)
	}
}
