// Command rwsctl inspects and validates Related Website Sets lists.
//
// Usage:
//
//	rwsctl stats [-list file]             composition statistics (§4 of the paper)
//	rwsctl related [-list file] A B       are two sites in the same set?
//	rwsctl find [-list file] SITE         which set does a site belong to?
//	rwsctl validate SET.json              run the submission bot's structural checks
//	rwsctl diff OLD.json NEW.json         member-level diff of two list snapshots
//	rwsctl diff -server URL FROM TO       diff two versions held by a running rws-serve
//	rwsctl versions -server URL           list the versions a running rws-serve retains
//	rwsctl churn -server URL [FROM [TO]]  churn rollup over the retained version chain
//	rwsctl serve [-addr :8080] [-list file]  serve the list as the rws-serve HTTP API
//
// Without -list, the embedded reconstruction of the 26 March 2024 snapshot
// is used. The -server verbs talk to rws-serve's version plane
// (/v1/versions, /v1/diff); FROM and TO accept a version hash prefix, an
// as-of time ("2023-04", "2023-04-26", RFC 3339), or "current", and
// -json passes the server's JSON through verbatim.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"rwskit"
	"rwskit/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rwsctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rwsctl <stats|related|find|validate|diff|versions|churn|serve> [args]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "stats":
		return cmdStats(rest, out)
	case "related":
		return cmdRelated(rest, out)
	case "find":
		return cmdFind(rest, out)
	case "validate":
		return cmdValidate(rest, out)
	case "diff":
		return cmdDiff(rest, out)
	case "versions":
		return cmdVersions(rest, out)
	case "churn":
		return cmdChurn(rest, out)
	case "serve":
		return cmdServe(rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func loadList(path string) (*rwskit.List, error) {
	if path == "" {
		return rwskit.Snapshot()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return rwskit.ParseList(data)
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	listPath := fs.String("list", "", "list JSON file (default: embedded snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	list, err := loadList(*listPath)
	if err != nil {
		return err
	}
	s := list.Stats()
	fmt.Fprintf(out, "sets:                 %d\n", s.Sets)
	fmt.Fprintf(out, "associated sites:     %d (%.1f%% of sets have one or more)\n",
		s.AssociatedSites, 100*s.FracSetsWithAssociated())
	fmt.Fprintf(out, "service sites:        %d (%.1f%% of sets)\n",
		s.ServiceSites, 100*s.FracSetsWithService())
	fmt.Fprintf(out, "ccTLD sites:          %d (%.1f%% of sets)\n",
		s.CCTLDSites, 100*s.FracSetsWithCCTLD())
	fmt.Fprintf(out, "mean associated/set:  %.2f\n", s.MeanAssociatedPerSet)
	return nil
}

func cmdRelated(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("related", flag.ContinueOnError)
	listPath := fs.String("list", "", "list JSON file (default: embedded snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: rwsctl related [-list file] A B")
	}
	list, err := loadList(*listPath)
	if err != nil {
		return err
	}
	a, b := fs.Arg(0), fs.Arg(1)
	if list.SameSet(a, b) {
		set, _, _ := list.FindSet(a)
		fmt.Fprintf(out, "RELATED: %s and %s are members of the set with primary %s\n", a, b, set.Primary)
		fmt.Fprintf(out, "Under Chrome's RWS policy, either site may gain unpartitioned\nstorage access while embedded in the other.\n")
	} else {
		fmt.Fprintf(out, "not related: %s and %s are not members of the same set\n", a, b)
	}
	return nil
}

func cmdFind(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("find", flag.ContinueOnError)
	listPath := fs.String("list", "", "list JSON file (default: embedded snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rwsctl find [-list file] SITE")
	}
	list, err := loadList(*listPath)
	if err != nil {
		return err
	}
	set, role, ok := list.FindSet(fs.Arg(0))
	if !ok {
		fmt.Fprintf(out, "%s is not on the list\n", fs.Arg(0))
		return nil
	}
	fmt.Fprintf(out, "site:    %s\n", fs.Arg(0))
	fmt.Fprintf(out, "role:    %s\n", role)
	fmt.Fprintf(out, "primary: %s\n", set.Primary)
	fmt.Fprintf(out, "members (%d):\n", set.Size())
	for _, m := range set.Members() {
		fmt.Fprintf(out, "  %-11s %s\n", m.Role.String(), m.Site)
	}
	return nil
}

func cmdValidate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rwsctl validate SET.json")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	set, err := rwskit.ParseSet(data)
	if err != nil {
		return err
	}
	rep := rwskit.ValidateSetOffline(context.Background(), set)
	if rep.Passed() {
		fmt.Fprintf(out, "OK: set with primary %s passes all structural checks\n", set.Primary)
		fmt.Fprintln(out, "(network checks — .well-known files, X-Robots-Tag — need the sites live)")
		return nil
	}
	fmt.Fprintf(out, "FAILED: %d issue(s)\n", len(rep.Issues))
	for _, issue := range rep.Issues {
		fmt.Fprintf(out, "  - %s\n", issue)
	}
	return fmt.Errorf("validation failed")
}

// cmdServe starts the rws-serve HTTP API in-process. serveAndListen is a
// variable so tests can intercept the blocking listen call.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	listPath := fs.String("list", "", "list JSON file (default: embedded snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: rwsctl serve [-addr :8080] [-list file]")
	}
	list, err := loadList(*listPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %d sets on %s\n", list.NumSets(), *addr)
	return serveAndListen(*addr, serve.New(list))
}

var serveAndListen = func(addr string, handler http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.ListenAndServe()
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	server := fs.String("server", "", "rws-serve base URL: diff two retained versions instead of two files")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: rwsctl diff [-server URL] [-json] <OLD.json NEW.json | FROM TO>")
	}
	if *server != "" {
		return remoteDiff(*server, fs.Arg(0), fs.Arg(1), *jsonOut, out)
	}
	oldList, err := loadList(fs.Arg(0))
	if err != nil {
		return err
	}
	newList, err := loadList(fs.Arg(1))
	if err != nil {
		return err
	}
	d := rwskit.DiffLists(oldList, newList)
	if *jsonOut {
		return writeIndented(out, struct {
			Empty          bool     `json:"empty"`
			Summary        string   `json:"summary"`
			AddedSets      []string `json:"added_sets,omitempty"`
			RemovedSets    []string `json:"removed_sets,omitempty"`
			AddedMembers   []string `json:"added_members,omitempty"`
			RemovedMembers []string `json:"removed_members,omitempty"`
		}{d.Empty(), d.Summary(), d.AddedSets, d.RemovedSets, d.AddedMembers, d.RemovedMembers})
	}
	writeDiffLines(out, d.AddedSets, d.RemovedSets, d.AddedMembers, d.RemovedMembers)
	return nil
}

// writeDiffLines renders a diff in the +/- line format both the file and
// server diff verbs share. Empty diffs print "no changes".
func writeDiffLines(out io.Writer, addedSets, removedSets, addedMembers, removedMembers []string) {
	if len(addedSets)+len(removedSets)+len(addedMembers)+len(removedMembers) == 0 {
		fmt.Fprintln(out, "no changes")
		return
	}
	for _, p := range addedSets {
		fmt.Fprintf(out, "+ set %s\n", p)
	}
	for _, p := range removedSets {
		fmt.Fprintf(out, "- set %s\n", p)
	}
	for _, m := range addedMembers {
		fmt.Fprintf(out, "+ member %s\n", m)
	}
	for _, m := range removedMembers {
		fmt.Fprintf(out, "- member %s\n", m)
	}
}

func writeIndented(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// serverGET fetches path from an rws-serve instance. With raw set the
// body is passed through to out verbatim (the -json contract); otherwise
// it is decoded into into. Non-200 responses surface the server's JSON
// error envelope.
func serverGET(server, path string, raw bool, out io.Writer, into any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(server, "/") + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s", e.Error)
		}
		return fmt.Errorf("server returned %s for %s", resp.Status, path)
	}
	if raw {
		_, err := io.Copy(out, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func remoteDiff(server, from, to string, jsonOut bool, out io.Writer) error {
	path := "/v1/diff?from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	if jsonOut {
		return serverGET(server, path, true, out, nil)
	}
	var d serve.DiffResponse
	if err := serverGET(server, path, false, nil, &d); err != nil {
		return err
	}
	fmt.Fprintf(out, "from %.12s (%s, %d sets) to %.12s (%s, %d sets): %s\n",
		d.From.Hash, d.From.AsOf.Format("2006-01-02"), d.From.Sets,
		d.To.Hash, d.To.AsOf.Format("2006-01-02"), d.To.Sets, d.Summary)
	if !d.Empty {
		writeDiffLines(out, d.AddedSets, d.RemovedSets, d.AddedMembers, d.RemovedMembers)
	}
	return nil
}

func cmdChurn(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	server := fs.String("server", "", "rws-serve base URL (required)")
	granularity := fs.String("granularity", "step", "rollup granularity: step, month, or total")
	top := fs.Int("top", 10, "most-volatile sets to rank (0 disables the table)")
	jsonOut := fs.Bool("json", false, "emit the churn report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" || fs.NArg() > 2 {
		return fmt.Errorf("usage: rwsctl churn -server URL [-granularity step|month|total] [-top N] [-json] [FROM [TO]]")
	}
	params := url.Values{}
	params.Set("granularity", *granularity)
	params.Set("top", fmt.Sprint(*top))
	if fs.NArg() >= 1 {
		params.Set("from", fs.Arg(0))
	}
	if fs.NArg() == 2 {
		params.Set("to", fs.Arg(1))
	}
	path := "/v1/churn?" + params.Encode()
	if *jsonOut {
		return serverGET(*server, path, true, out, nil)
	}
	var c serve.ChurnResponse
	if err := serverGET(*server, path, false, nil, &c); err != nil {
		return err
	}
	fmt.Fprintf(out, "churn %.12s (%s) → %.12s (%s): %d versions, granularity %s\n",
		c.From.Hash, c.From.AsOf.Format("2006-01-02"),
		c.To.Hash, c.To.AsOf.Format("2006-01-02"), c.Versions, c.Granularity)
	if len(c.Steps) > 0 {
		fmt.Fprintf(out, "%-8s  %5s  %5s  %5s  %5s  %5s  %s\n",
			"STEP", "+SETS", "-SETS", "~SETS", "+MEM", "-MEM", "RENAMES")
		for _, s := range c.Steps {
			renames := ""
			for i, rn := range s.Renames {
				if i > 0 {
					renames += ", "
				}
				renames += rn.From + "→" + rn.To
			}
			fmt.Fprintf(out, "%-8s  %5d  %5d  %5d  %5d  %5d  %s\n",
				s.Label, s.SetsAdded, s.SetsRemoved, s.SetsMutated,
				s.MembersAdded, s.MembersRemoved, renames)
		}
	}
	fmt.Fprintf(out, "cumulative: %s\n", c.Cumulative.Summary)
	fmt.Fprintf(out, "sets churned %d (born %d, died %d, renamed %d), members churned %d\n",
		c.SetsChurned, c.SetsBorn, c.SetsDied, c.SetsRenamed, c.MembersChurned)
	if len(c.TopVolatile) > 0 {
		fmt.Fprintf(out, "most volatile sets:\n")
		fmt.Fprintf(out, "  %-28s  %10s  %9s  %11s  %s\n",
			"PRIMARY", "VOLATILITY", "MUTATIONS", "MEMBER-CHURN", "LIFECYCLE")
		for _, lc := range c.TopVolatile {
			var events []string
			if lc.Born {
				events = append(events, "born")
			}
			if lc.Died {
				events = append(events, "died")
			}
			if lc.RenamedFrom != "" {
				events = append(events, "renamed from "+lc.RenamedFrom)
			}
			if lc.RenamedTo != "" {
				events = append(events, "renamed to "+lc.RenamedTo)
			}
			fmt.Fprintf(out, "  %-28s  %10d  %9d  %11d  %s\n",
				lc.Primary, lc.Volatility, lc.Mutations, lc.MemberChurn, strings.Join(events, ", "))
		}
	}
	return nil
}

func cmdVersions(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("versions", flag.ContinueOnError)
	server := fs.String("server", "", "rws-serve base URL (required)")
	jsonOut := fs.Bool("json", false, "emit the version list as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || *server == "" {
		return fmt.Errorf("usage: rwsctl versions -server URL [-json]")
	}
	if *jsonOut {
		return serverGET(*server, "/v1/versions", true, out, nil)
	}
	var vs serve.VersionsResponse
	if err := serverGET(*server, "/v1/versions", false, nil, &vs); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d of %d version slots in use\n", vs.Retained, vs.Capacity)
	fmt.Fprintf(out, "%-12s  %-10s  %5s  %5s  %-7s  %s\n", "VERSION", "AS OF", "SETS", "SITES", "CURRENT", "SOURCE")
	for _, v := range vs.Versions {
		current := ""
		if v.Current {
			current = "*"
		}
		fmt.Fprintf(out, "%-12.12s  %-10s  %5d  %5d  %-7s  %s\n",
			v.Hash, v.AsOf.Format("2006-01-02"), v.Sets, v.Sites, current, v.Source)
	}
	return nil
}
