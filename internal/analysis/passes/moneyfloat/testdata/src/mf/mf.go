// Package mf is the moneyfloat analyzer's fixture: every float detour
// around the Money API appears once flagged, once in its exact
// sanctioned form, and once behind the //mvlint:allow escape hatch.
package mf

import "vmcloud/internal/money"

const tariff = 0.12

func convert(m money.Money) float64 {
	return float64(m) // want `raw float conversion of money\.Money bypasses exact arithmetic`
}

func rebuild(hours float64) money.Money {
	return money.FromDollars(hours * tariff) // want `money\.FromDollars on a computed value rebuilds money from float arithmetic`
}

func fixtureTariff() money.Money {
	return money.FromDollars(0.12) // literal tariff constants are exact by inspection
}

func scale(m money.Money, hours float64) money.Money {
	return m.MulFloat(hours) // the sanctioned money-times-float API
}

func cheaper(a, b money.Money) bool {
	return a.Dollars() < b.Dollars() // want `comparing money in float space via Dollars\(\)`
}

func cheaperExact(a, b money.Money) bool {
	return a < b // Money compares exactly
}

func span(a, b money.Money) float64 {
	return a.Dollars() - b.Dollars() // want `float arithmetic between two money amounts`
}

func spanExact(a, b money.Money) float64 {
	return a.Sub(b).Dollars() // compute in Money, convert once for display
}

func score(alpha, t float64, c money.Money) float64 {
	return alpha*t + (1-alpha)*c.Dollars() // mixed objective-space scoring is floats by design
}

func allowedConvert(m money.Money) float64 {
	//mvlint:allow moneyfloat -- fixture: proves the escape hatch suppresses the finding
	return float64(m)
}
