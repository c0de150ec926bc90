// Remote mode: with -server, the request a command built is posted to a
// running mvcloudd through internal/client (which retries 429 sheds
// after the server's Retry-After hint and transient failures with
// jittered backoff under a retry budget), and the server's JSON response
// is printed, indented.
package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"vmcloud/internal/client"
)

// post sends req to path on the daemon at base and prints the answer.
// The search seed doubles as the jitter seed, so retried runs are
// reproducible.
func post(base string, seed int64, path string, req any, out io.Writer) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	c := &client.Client{
		BaseURL: base,
		HTTP:    &http.Client{Timeout: 2 * time.Minute},
		Seed:    seed,
	}
	resp, err := c.Do(context.Background(), path, body)
	if err != nil {
		return err
	}
	return printJSON(out, resp)
}

// printJSON prints a JSON body indented by two spaces.
func printJSON(out io.Writer, body []byte) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(json.RawMessage(body))
}
