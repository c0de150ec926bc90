package lib

import "testing"

func TestSetsTestOnly(t *testing.T) { _ = Options{TestOnly: 1}.withDefaults() }
