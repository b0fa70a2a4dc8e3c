package main

import (
	"fmt"
	"reflect"

	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/txq"
)

// The oracles below decide whether a run's outputs are right. Each
// returns nil when they are and an error naming the mismatch when not;
// a mismatch fails the run, so a faster wrong answer never counts.

// backfillOracle: the backfilled snapshot holds exactly the payments
// the raw scan counts, and its Figure 3 rows equal the batch pipeline's
// (core.Dataset.Figure3) on the same store.
func backfillOracle(snapPayments, scanPayments int, rows, want []deanon.RowResult) error {
	if snapPayments != scanPayments {
		return fmt.Errorf("snapshot holds %d payments, the scan counted %d", snapPayments, scanPayments)
	}
	if !reflect.DeepEqual(rows, want) {
		return fmt.Errorf("Figure 3 rows differ from core.Dataset.Figure3")
	}
	return nil
}

// liveOracle: the served Figure 2 tally equals a monitor.Collector fold
// of the same events, and no event was dropped or missed on the way.
func liveOracle(got, want monitor.Report, dropped, missed uint64) error {
	if dropped != 0 || missed != 0 {
		return fmt.Errorf("stream lost events: dropped=%d missed=%d", dropped, missed)
	}
	if got.Rounds != want.Rounds || !reflect.DeepEqual(got.Validators, want.Validators) {
		return fmt.Errorf("Figure 2 tally (%d rounds) differs from the monitor.Collector fold (%d rounds)", got.Rounds, want.Rounds)
	}
	return nil
}

// submitOracle: every offer is accounted applied, shed or rejected,
// every admitted ticket resolved, and the state digest held still once
// the queue drained.
func submitOracle(st txq.Stats, resolved, admitted int, before, after ledger.Hash) error {
	if st.Offered != st.Applied+st.Shed+st.Rejected {
		return fmt.Errorf("offered %d != applied %d + shed %d + rejected %d", st.Offered, st.Applied, st.Shed, st.Rejected)
	}
	if resolved != admitted {
		return fmt.Errorf("%d of %d admitted tickets resolved", resolved, admitted)
	}
	if before != after {
		return fmt.Errorf("state digest moved after Drain")
	}
	return nil
}

// researchOracle: the checkpoint-resumed state equals the cold rebuild,
// Table II delivered no cross-currency payment once the market makers
// were removed, and Figure 3 equals the sequential deanon.Study.
func researchOracle(resumed, cold ledger.Hash, crossDelivered int, rows, want []deanon.RowResult) error {
	if resumed != cold {
		return fmt.Errorf("resumed state digest differs from the cold build")
	}
	if crossDelivered != 0 {
		return fmt.Errorf("Table II delivered %d cross-currency payments without market makers", crossDelivered)
	}
	if !reflect.DeepEqual(rows, want) {
		return fmt.Errorf("Figure 3 rows differ from the deanon.Study oracle")
	}
	return nil
}
