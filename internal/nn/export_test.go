package nn

// RaceEnabled is raceEnabled for the package's external tests (package
// nn_test, which may import the model zoo).
const RaceEnabled = raceEnabled
