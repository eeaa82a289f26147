PATTERN (A B+ C)
DEFINE
    A AS (A.closePrice < lowerLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit),
    C AS (C.closePrice > upperLimit)
WITHIN 200 events FROM every 50 events
CONSUME (A B+ C)
