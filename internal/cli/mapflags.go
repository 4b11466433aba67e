package cli

import (
	"flag"

	"powermap/internal/mapper"
)

// mapFlags holds the uniform mapper-backend flags (-mapper, -lut) shared
// by pmap, pcheck and tables.
type mapFlags struct {
	backend *string
	lut     *int
}

// addMapFlags registers the mapper backend selection flags on fs.
func addMapFlags(fs *flag.FlagSet) *mapFlags {
	return &mapFlags{
		backend: fs.String("mapper", "",
			"match enumerator: tree (structural, DAGON partition), dag (structural, fanout division), cuts (NPN Boolean matching on a hashed AIG); default dag, or cuts when -lut is set"),
		lut: fs.Int("lut", 0,
			"map every k-feasible cut to a generic k-input LUT (2..6, implies -mapper cuts; 0 = library matching)"),
	}
}

// resolve materializes the flags as (backend, lut).
func (m *mapFlags) resolve() (mapper.Backend, int, error) {
	backend, err := mapper.ParseBackend(*m.backend, *m.lut)
	return backend, *m.lut, err
}
