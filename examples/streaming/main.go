// Streaming: drive AdaServe through the event-driven serving API
// (internal/serve) with a closed-loop workload instead of a pre-built
// trace.
//
// The example plays a multi-turn chat: an opening request per user is
// submitted up front, and every time a turn finishes the user's follow-up
// turn is submitted after a think-time pause — request arrivals depend on
// earlier completions, which no closed trace replay can express. An
// observer prints the per-request lifecycle (admission, first token, SLO
// violations, completion) and the driver's periodic rolling-metric
// snapshots.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"adaserve/internal/experiments"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

const (
	users     = 4   // concurrent chat users
	turns     = 3   // turns per user
	thinkTime = 2.5 // seconds between a reply and the user's next turn
)

// chat is the closed-loop workload: one opening turn per user, and each
// user's next turn a think-time pause after the previous one finishes.
type chat struct {
	gen  *workload.Generator
	turn map[int]int // request ID -> turn number
}

// InitialRequests implements experiments.Sessions.
func (c *chat) InitialRequests() []*request.Request {
	var reqs []*request.Request
	for u := 0; u < users; u++ {
		r := c.gen.MakeAt(request.Chat, 0.3*float64(u))
		c.turn[r.ID] = 1
		reqs = append(reqs, r)
	}
	return reqs
}

// FollowUp implements experiments.Sessions.
func (c *chat) FollowUp(done *request.Request, now float64) *request.Request {
	t := c.turn[done.ID]
	if t >= turns {
		return nil
	}
	next := c.gen.MakeAt(request.Chat, now+thinkTime)
	c.turn[next.ID] = t + 1
	fmt.Printf("[t=%6.2fs]   ... user types turn %d (req %d) arriving t=%.2fs\n",
		now, t+1, next.ID, next.ArrivalTime)
	return next
}

func main() {
	// 1. The workload: chat-only requests from a seeded generator.
	setup := experiments.Llama70B()
	gen, err := experiments.NewGenerator(setup, workload.Mix{0, 1, 0}, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	sessions := &chat{gen: gen, turn: map[int]int{}}

	// 2. The observer narrates the lifecycle. It runs before the workload
	//    submits the next turn of a finished request.
	narrate := serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.RequestAdmitted:
			fmt.Printf("[t=%6.2fs] turn %d of req %-3d admitted (prompt %d tok)\n",
				e.Time, sessions.turn[e.Req.ID], e.Req.ID, e.Req.PromptLen)
		case serve.FirstToken:
			fmt.Printf("[t=%6.2fs] req %-3d first token after %.0f ms\n",
				e.Time, e.Req.ID, 1e3*e.TTFT)
		case serve.SLOViolated:
			fmt.Printf("[t=%6.2fs] req %-3d missed its %s SLO\n", e.Time, e.Req.ID, e.Kind)
		case serve.RequestFinished:
			verdict := "met SLO"
			if !e.Attained {
				verdict = "MISSED SLO"
			}
			fmt.Printf("[t=%6.2fs] req %-3d finished: %d tok, avg TPOT %.1f ms (%s)\n",
				e.Time, e.Req.ID, e.Req.OutputLen(), 1e3*e.TPOT, verdict)
		case serve.Snapshot:
			s := e.Stats
			fmt.Printf("[t=%6.2fs] -- snapshot: %d running, %d finished, attain %.0f%%, window goodput %.1f tok/s\n",
				e.Time, s.Running, s.Finished, 100*s.Attainment(), s.WindowGoodput)
		}
	})

	// 3. Serve it with AdaServe on one replica, with a rolling-metric
	//    snapshot every 5 simulated seconds over a 10-second window. The run
	//    ends when the last turn retires.
	res, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1,
		Sessions: sessions, Observers: []serve.Observer{narrate},
		SnapshotEvery: 5, Window: 10}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println(res.Summary.Aggregate)
	fmt.Printf("\n%d turns across %d users, %d events streamed, simulated %.1fs over %d iterations\n",
		users*turns, users, res.Events, res.EndTime, res.Iterations)
}
