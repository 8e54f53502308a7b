package memdep

// Verdict is what a caller observed about one retiring load: the
// distance prediction it used at rename and the store it actually
// collided with. The detailed core and functional warming judge a load
// by different evidence and each compute their own verdict; TrainLoad
// is the one training rule both apply to it.
type Verdict struct {
	Used       bool  // a distance prediction was used (armed a bypass)
	UsedDist   int64 // the distance used
	Correct    bool  // the used prediction named the colliding store
	Collided   bool  // an in-window store collided (T-SSBF tag match, distance in [0, MaxDist])
	ActualDist int64 // the colliding store's distance, when Collided
	Reexecuted bool  // the load re-executed and the update policy learns from it
}

// TrainLoad applies the gated training rule to the load at pc and
// reports whether it wrote the predictor. Only two kinds of load train:
//   - a re-executed load learns a real collision's distance, and a used
//     prediction that did not name one loses confidence (the
//     silent-store-aware policy of paper §IV-C a, when the caller
//     enables it);
//   - any other load that used a prediction is rewarded when it was
//     correct, retrained toward the colliding store when one was found,
//     and otherwise decayed toward the used distance.
//
// An unpredicted load that did not re-execute leaves the predictor
// untouched: training every in-window collision instead fills it with
// confident far dependencies the machine never observes.
func TrainLoad(p DistancePredictor, pc, hist uint32, v Verdict) bool {
	switch {
	case v.Reexecuted && v.Collided:
		p.TrainWrong(pc, hist, v.ActualDist)
	case !v.Used:
		return false
	case v.Reexecuted:
		p.TrainWrong(pc, hist, v.UsedDist)
	case v.Correct:
		p.TrainCorrect(pc, hist, v.UsedDist)
	case v.Collided:
		p.TrainWrong(pc, hist, v.ActualDist)
	default:
		p.TrainWrong(pc, hist, v.UsedDist)
	}
	return true
}
