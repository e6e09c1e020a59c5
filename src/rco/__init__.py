"""Risk-averse control override for driving agents under perception deficits."""
