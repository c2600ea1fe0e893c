package bench

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// Instance is a synthetic analog of one of the twelve SuiteSparse matrices
// used in Table 3 and Figures 3–5. The analogs match the structural class
// (mesh / road network / power-law / banded / saddle-point), the average
// degree, the degree skew and the sprank deficiency of the originals,
// which cannot be shipped with an offline reproduction (see package gen).
type Instance struct {
	Name      string // analog name used in reports
	PaperName string // the SuiteSparse matrix it stands in for
	Class     string // structural class
	Build     func() *sparse.CSR
}

// Catalog returns the twelve Table-3 instances at the requested scale.
// Scales: "tiny" for unit tests, "small" for the default benchmark suite,
// "paper" for sizes approaching the original evaluation.
func Catalog(scale string) []Instance {
	f := 1.0
	switch scale {
	case "tiny":
		f = 0.1
	case "small", "":
		f = 1.0
	case "paper":
		f = 3.0
	default:
		panic(fmt.Sprintf("bench: unknown scale %q", scale))
	}
	si := func(base int) int { // scale 1-D sizes
		v := int(float64(base) * f)
		if v < 8 {
			v = 8
		}
		return v
	}
	s3 := func(base int) int { // scale 3-D grid sides by f^(1/3)
		v := int(float64(base) * math.Cbrt(f))
		if v < 4 {
			v = 4
		}
		return v
	}
	s2 := func(base int) int { // scale 2-D grid sides by sqrt(f)
		v := int(float64(base) * math.Sqrt(f))
		if v < 8 {
			v = 8
		}
		return v
	}
	return []Instance{
		{
			Name: "mesh3d7", PaperName: "atmosmodl", Class: "3-D 7-point mesh",
			Build: func() *sparse.CSR { return gen.Grid3D(s3(58), s3(58), s3(58), false) },
		},
		{
			Name: "skewdense", PaperName: "audikw_1", Class: "skewed dense rows (FEM stiffness)",
			Build: func() *sparse.CSR { return gen.PowerLaw(si(60000), 25, 2.5, 4000, 101) },
		},
		{
			Name: "uniform19", PaperName: "cage15", Class: "uniform sparse, deg≈19",
			Build: func() *sparse.CSR { return gen.ERAvgDeg(si(280000), si(280000), 19, 102) },
		},
		{
			Name: "mesh3d27", PaperName: "channel", Class: "3-D 27-point mesh",
			Build: func() *sparse.CSR { return gen.Grid3D(s3(54), s3(54), s3(54), true) },
		},
		{
			Name: "roadnet21", PaperName: "europe_osm", Class: "road network, deg≈2.1",
			Build: func() *sparse.CSR { return gen.RoadLike(si(600000), 2.1, 103) },
		},
		{
			Name: "band4", PaperName: "Hamrle3", Class: "banded circuit matrix",
			Build: func() *sparse.CSR { return gen.Band(si(400000), 0, -1, 1, -300) },
		},
		{
			Name: "mesh2dthin", PaperName: "hugebubbles", Class: "thinned 2-D mesh, deg≈3",
			Build: func() *sparse.CSR { return gen.RoadLike(si(500000), 3.0, 104) },
		},
		{
			Name: "saddle6", PaperName: "kkt_power", Class: "KKT saddle point, deg≈6",
			Build: func() *sparse.CSR { return gen.KKTLike(si(350000), si(80000), 2, 105) },
		},
		{
			Name: "saddle26", PaperName: "nlpkkt240", Class: "KKT saddle point, deg≈26",
			Build: func() *sparse.CSR { return gen.KKTLike(si(120000), si(30000), 11, 106) },
		},
		{
			Name: "roadnet24", PaperName: "road_usa", Class: "road network, deg≈2.4",
			Build: func() *sparse.CSR { return gen.RoadLike(si(600000), 2.4, 107) },
		},
		{
			Name: "heavytail", PaperName: "torso1", Class: "extreme degree variance",
			Build: func() *sparse.CSR { return gen.PowerLaw(si(60000), 15, 1.35, 30000, 108) },
		},
		{
			Name: "mesh2d4", PaperName: "venturiLevel3", Class: "2-D mesh, deg≈4",
			Build: func() *sparse.CSR { return gen.Mesh2D(s2(650), s2(650)) },
		},
	}
}
