package main

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/vector"
)

// appendPoint writes p as a JSON array. Each coordinate uses the
// shortest decimal that round-trips its float32, so the server parses
// exactly the point the benchmark checks against.
func appendPoint(b []byte, p vector.Dense) []byte {
	b = append(b, '[')
	for j, v := range p {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, ']')
}

func queryBody(p vector.Dense) []byte {
	return append(appendPoint([]byte(`{"point":`), p), '}')
}

// pointsBody encodes /batch and /append bodies.
func pointsBody(pts []vector.Dense) []byte {
	b := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPoint(b, p)
	}
	return append(b, "]}"...)
}

func deleteBody(ids []int32) []byte {
	b := []byte(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "]}"...)
}

// answer is one query's result as the server reported it.
type answer struct {
	ids         []int32
	lsh, linear int
}

var (
	idsKey    = []byte(`"ids":[`)
	lshKey    = []byte(`"lsh_shards":`)
	linearKey = []byte(`"linear_shards":`)
)

// parseAnswers extracts every result object's ids and strategy mix
// from a /query or /batch response, in order. The server's result
// objects carry exactly one "ids" array each, followed by the strategy
// counts, so a linear scan suffices and avoids decoding answers of
// tens of thousands of ids through reflection.
func parseAnswers(body []byte) ([]answer, error) {
	var out []answer
	rest := body
	for {
		i := bytes.Index(rest, idsKey)
		if i < 0 {
			break
		}
		ids, n, err := parseIntArray(rest[i+len(idsKey):])
		if err != nil {
			return nil, err
		}
		rest = rest[i+len(idsKey)+n:]
		a := answer{ids: ids}
		if a.lsh, err = intAfter(rest, lshKey); err != nil {
			return nil, err
		}
		if a.linear, err = intAfter(rest, linearKey); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ids in response %.80q", body)
	}
	return out, nil
}

// parseIDs extracts the single "ids" array of an /append response.
func parseIDs(body []byte) ([]int32, error) {
	i := bytes.Index(body, idsKey)
	if i < 0 {
		return nil, fmt.Errorf("no ids in response %.80q", body)
	}
	ids, _, err := parseIntArray(body[i+len(idsKey):])
	return ids, err
}

// parseIntArray parses integers up to the closing ']' and returns them
// with the number of bytes consumed (the ']' included).
func parseIntArray(b []byte) ([]int32, int, error) {
	ids := make([]int32, 0, bytes.Count(b[:max(0, bytes.IndexByte(b, ']'))], []byte{','})+1)
	v, digits := int64(0), 0
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int64(c-'0')
			digits++
		case c == ',' || c == ']':
			if digits > 0 {
				ids = append(ids, int32(v))
			} else if c == ',' || len(ids) > 0 {
				return nil, 0, fmt.Errorf("malformed id array")
			}
			if c == ']' {
				return ids, i + 1, nil
			}
			v, digits = 0, 0
		case c == ' ' || c == '\n':
		default:
			return nil, 0, fmt.Errorf("unexpected %q in id array", c)
		}
	}
	return nil, 0, fmt.Errorf("unterminated id array")
}

func intAfter(b, key []byte) (int, error) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, fmt.Errorf("missing %s", key)
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(b[:j]))
}
