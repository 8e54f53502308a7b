package memdep

import (
	"fmt"
	"reflect"
	"testing"
)

// trainLog is a DistancePredictor that records the training calls it
// receives.
type trainLog []string

func (l *trainLog) Predict(uint32, uint32) (Prediction, bool) { return Prediction{}, false }
func (l *trainLog) TrainCorrect(pc, hist uint32, dist int64) {
	*l = append(*l, fmt.Sprintf("correct %d", dist))
}
func (l *trainLog) TrainWrong(pc, hist uint32, dist int64) {
	*l = append(*l, fmt.Sprintf("wrong %d", dist))
}

// TestTrainLoadRule covers every branch of the gated training rule.
// The used distance is 3 and the actual one 5, so each call shows which
// of the two it trained toward.
func TestTrainLoadRule(t *testing.T) {
	const used, actual = 3, 5
	cases := []struct {
		name string
		v    Verdict
		want []string
	}{
		{"unpredicted, not re-executed", Verdict{}, nil},
		{"unpredicted, not re-executed, collided", Verdict{Collided: true}, nil},
		{"unpredicted, re-executed, no collision", Verdict{Reexecuted: true}, nil},
		{"unpredicted, re-executed, collided", Verdict{Reexecuted: true, Collided: true}, []string{"wrong 5"}},
		{"used, re-executed, no collision", Verdict{Used: true, Reexecuted: true}, []string{"wrong 3"}},
		{"used, re-executed, collided", Verdict{Used: true, Reexecuted: true, Collided: true}, []string{"wrong 5"}},
		{"used, re-executed, correct and collided", Verdict{Used: true, Reexecuted: true, Correct: true, Collided: true}, []string{"wrong 5"}},
		{"used, correct", Verdict{Used: true, Correct: true}, []string{"correct 3"}},
		{"used, correct and collided", Verdict{Used: true, Correct: true, Collided: true}, []string{"correct 3"}},
		{"used, wrong store collided", Verdict{Used: true, Collided: true}, []string{"wrong 5"}},
		{"used, no collision", Verdict{Used: true}, []string{"wrong 3"}},
	}
	for _, tc := range cases {
		tc.v.UsedDist, tc.v.ActualDist = used, actual
		var calls trainLog
		wrote := TrainLoad(&calls, 0x400, 0, tc.v)
		if !reflect.DeepEqual([]string(calls), tc.want) {
			t.Errorf("%s: trained %v, want %v", tc.name, calls, tc.want)
		}
		if wrote != (len(tc.want) > 0) {
			t.Errorf("%s: TrainLoad reported a write %t for %v", tc.name, wrote, calls)
		}
	}
}
