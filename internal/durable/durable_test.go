package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestFrameBytes pins the frame format: journals and the fabric wire
// written by earlier builds must keep loading, and resumed journals
// must keep their bytes.
func TestFrameBytes(t *testing.T) {
	line, err := Frame("task", map[string]string{"id": "a", "text": "<&>"})
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"id":"a","text":"\u003c\u0026\u003e"}`
	want := `{"sum":"crc32:ed8a1044","task":` + payload + "}\n"
	if string(line) != want {
		t.Fatalf("Frame = %s, want %s", line, want)
	}
	got, err := ParseFrame(bytes.TrimSpace(line))
	if err != nil || got.Kind != "task" || string(got.Payload) != payload {
		t.Fatalf("ParseFrame = %+v, %v", got, err)
	}
}

// rec is the fuzz target's record. Its text comes from the fuzzer, so
// records of any length and content — escapes, invalid UTF-8 — land
// in both line formats.
type rec struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

func decodeFramed(line []byte) (rec, error) {
	f, err := ParseFrame(line)
	if err != nil {
		return rec{}, err
	}
	var r rec
	err = json.Unmarshal(f.Payload, &r)
	return r, err
}

func decodePlain(line []byte) (rec, error) {
	var r rec
	err := json.Unmarshal(line, &r)
	return r, err
}

// encode renders r as one line without its newline: a CRC frame, or
// plain JSON like a ledger record.
func encode(t *testing.T, r rec, framed bool) []byte {
	t.Helper()
	var line []byte
	var err error
	if framed {
		line, err = Frame("rec", r)
	} else {
		line, err = json.Marshal(r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(line, []byte("\n"))
}

// appendRecord appends r to the file at path the way each format's
// writer does: an Appender for frames, a plain O_APPEND write for JSON.
func appendRecord(t *testing.T, path string, r rec, framed bool) {
	t.Helper()
	if framed {
		app, err := OpenAppender(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Append("rec", r); err != nil {
			t.Fatal(err)
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(encode(t, r, false), '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzLines drives the torn-tail rule, its repair and the frame
// checksum over both line formats (CRC frames read with ParseFrame,
// plain JSON records). For a file of N records:
//
//  1. Cut at any byte offset, Lines returns exactly the records whose
//     closing brace precedes the cut, never an error, and torn only
//     when the cut leaves a non-blank partial line.
//  2. Heal the cut file and append one record: reading it back gives
//     the intact records plus the new one, not torn.
//  3. Change one byte of a framed record's checksum or payload, with
//     another record after it: Lines fails, never returning a shorter
//     list.
func FuzzLines(f *testing.F) {
	f.Add("result a", uint8(3), uint16(40), uint16(7), uint8(1), uint8(0), true)
	f.Add("x", uint8(2), uint16(0), uint16(0), uint8(0x20), uint8(1), false)
	f.Add("<&\"\n\\  ", uint8(4), uint16(95), uint16(30), uint8(0x80), uint8(2), true)
	f.Add("tail", uint8(1), uint16(29), uint16(3), uint8(0xff), uint8(3), false)
	f.Add("", uint8(2), uint16(33), uint16(1), uint8(0x0a), uint8(0), true)
	f.Fuzz(func(t *testing.T, text string, n uint8, cut, at uint16, mask, sep uint8, framed bool) {
		decode := decodePlain
		if framed {
			decode = decodeFramed
		}
		seps := []string{"\n", "\n\n", "\r\n", " \n"}
		var data []byte
		var starts, ends []int // each record's first byte, and one past its closing brace
		for i := 0; i < 1+int(n)%4; i++ {
			starts = append(starts, len(data))
			data = append(data, encode(t, rec{ID: i, Text: text}, framed)...)
			ends = append(ends, len(data))
			data = append(data, seps[int(sep)%len(seps)]...)
		}
		all, torn, err := Lines(data, decode)
		if err != nil || torn || len(all) != len(starts) {
			t.Fatalf("intact file: %d records, torn=%v, err=%v; want %d", len(all), torn, err, len(starts))
		}

		c := int(cut) % (len(data) + 1)
		k := 0
		for k < len(ends) && ends[k] <= c {
			k++
		}
		wantTorn := k < len(starts) && starts[k] < c
		got, torn, err := Lines(data[:c], decode)
		if err != nil || torn != wantTorn || !slices.Equal(got, all[:k]) {
			t.Fatalf("cut at %d of %d: %d records, torn=%v, err=%v; want %d, torn=%v",
				c, len(data), len(got), torn, err, k, wantTorn)
		}

		path := filepath.Join(t.TempDir(), "lines")
		if err := os.WriteFile(path, data[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		healed, torn, err := Heal(path, decode)
		if err != nil || torn != wantTorn || !slices.Equal(healed, all[:k]) {
			t.Fatalf("Heal after cut at %d: %d records, torn=%v, err=%v; want %d, torn=%v",
				c, len(healed), torn, err, k, wantTorn)
		}
		next := rec{ID: len(starts), Text: text}
		appendRecord(t, path, next, framed)
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Compare decoded forms: JSON turns invalid UTF-8 into U+FFFD.
		read, err := decode(encode(t, next, framed))
		if err != nil {
			t.Fatal(err)
		}
		want := append(all[:k:k], read)
		if got, torn, err := Lines(after, decode); err != nil || torn || !slices.Equal(got, want) {
			t.Fatalf("healed cut at %d plus one append: %d records, torn=%v, err=%v; want %d\n%q",
				c, len(got), torn, err, len(want), after)
		}

		if !framed || len(starts) < 2 {
			return
		}
		// Byte offsets inside a frame: the checksum's 8 hex digits, and
		// the payload between the kind key and the closing brace.
		sumAt, payloadAt := len(`{"sum":"crc32:`), len(`{"sum":"crc32:01234567","rec":`)
		i := int(at) % (len(starts) - 1)
		span := 8 + (ends[i] - starts[i] - 1 - payloadAt)
		off := sumAt + int(at>>2)%span
		if off >= sumAt+8 {
			off = payloadAt + off - (sumAt + 8)
		}
		if mask == 0 {
			mask = 1
		}
		bad := bytes.Clone(data)
		bad[starts[i]+off] ^= mask
		if got, _, err := Lines(bad, decode); err == nil {
			t.Fatalf("byte %d of record %d changed (^%#x): Lines returned %d records and no error",
				off, i, mask, len(got))
		}
	})
}
