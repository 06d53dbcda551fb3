package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"

	"repro/internal/service"
)

// maskStats removes every "Stats" object from a decoded JSON value. The
// engine's execution counters (allocation warm-up, wire bytes, frames) may
// differ between paths that must agree on the answer: HTTP vs in-process,
// cluster vs single process.
func maskStats(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "Stats")
		for k, e := range x {
			x[k] = maskStats(e)
		}
	case []any:
		for i, e := range x {
			x[i] = maskStats(e)
		}
	}
	return v
}

// sameResult reports whether two JSON-encoded results agree once Stats are
// masked.
func sameResult(a, b []byte) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return reflect.DeepEqual(maskStats(va), maskStats(vb))
}

// reference runs req on an in-process service and returns the JSON of its
// result — the value an HTTP or cluster answer must equal.
func reference(svc *service.Service, req service.Request) ([]byte, error) {
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp.Result)
}

// envelope is the part of a POST /v1/run response the benchmark reads.
type envelope struct {
	Result json.RawMessage `json:"result"`
}

// batchEnvelope is the part of a POST /v1/batch response the benchmark
// reads.
type batchEnvelope struct {
	Items []struct {
		Response *envelope `json:"response"`
		Error    string    `json:"error"`
	} `json:"items"`
}

// resultOf extracts the result of a /v1/run response body.
func resultOf(body []byte) ([]byte, error) {
	var e envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, err
	}
	if len(e.Result) == 0 {
		return nil, fmt.Errorf("response carries no result")
	}
	return e.Result, nil
}

// batchResults extracts the item results of a /v1/batch response body;
// an item error is an error.
func batchResults(body []byte) ([][]byte, error) {
	var e batchEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, err
	}
	out := make([][]byte, len(e.Items))
	for i, it := range e.Items {
		if it.Error != "" || it.Response == nil {
			return nil, fmt.Errorf("batch item %d failed: %s", i, it.Error)
		}
		out[i] = it.Response.Result
	}
	return out, nil
}

// post sends body to url and returns the status and the response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runRequest posts one service.Request to /v1/run and returns its result
// JSON, failing on any non-200 status.
func runRequest(ctx context.Context, c *http.Client, base string, req service.Request) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, resp, err := post(ctx, c, base+"/v1/run", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/run: status %d: %s", status, bytes.TrimSpace(resp))
	}
	return resultOf(resp)
}
