package experiments

// Figure is one named table of the evaluation.
type Figure struct {
	Name string
	Run  func(Scale) (*Table, error)
}

// Figures lists every table elink-experiments renders, in print order.
var Figures = []Figure{
	{"fig08", Fig08},
	{"fig09", Fig09},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"path", PathQueries},
	{"complexity", Complexity},
	{"ablation-unordered", AblationUnordered},
	{"ablation-switches", AblationSwitches},
	{"ablation-phi", AblationPhi},
	{"kmedoids", KMedoidsComparison},
	{"recluster", ReclusterPolicy},
	{"sampling", RepresentativeSampling},
	{"hotspot", HotspotSpread},
	{"optimality", OptimalityGap},
}
