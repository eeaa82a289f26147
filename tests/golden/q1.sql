PATTERN (MLE RE1 RE2 RE3 RE4 RE5 RE6 RE7 RE8)
DEFINE
    MLE AS ((MLE.symbol = 'L0000' OR MLE.symbol = 'L0001' OR MLE.symbol = 'L0002' OR MLE.symbol = 'L0003' OR MLE.symbol = 'L0004' OR MLE.symbol = 'L0005' OR MLE.symbol = 'L0006' OR MLE.symbol = 'L0007' OR MLE.symbol = 'L0008' OR MLE.symbol = 'L0009' OR MLE.symbol = 'L0010' OR MLE.symbol = 'L0011' OR MLE.symbol = 'L0012' OR MLE.symbol = 'L0013' OR MLE.symbol = 'L0014' OR MLE.symbol = 'L0015') AND (MLE.closePrice > MLE.openPrice OR MLE.closePrice < MLE.openPrice)),
    RE1 AS ((RE1.closePrice > RE1.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE1.closePrice < RE1.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE2 AS ((RE2.closePrice > RE2.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE2.closePrice < RE2.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE3 AS ((RE3.closePrice > RE3.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE3.closePrice < RE3.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE4 AS ((RE4.closePrice > RE4.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE4.closePrice < RE4.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE5 AS ((RE5.closePrice > RE5.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE5.closePrice < RE5.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE6 AS ((RE6.closePrice > RE6.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE6.closePrice < RE6.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE7 AS ((RE7.closePrice > RE7.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE7.closePrice < RE7.openPrice AND MLE.closePrice < MLE.openPrice)),
    RE8 AS ((RE8.closePrice > RE8.openPrice AND MLE.closePrice > MLE.openPrice) OR (RE8.closePrice < RE8.openPrice AND MLE.closePrice < MLE.openPrice))
WITHIN 100 events FROM MLE
CONSUME (MLE RE1 RE2 RE3 RE4 RE5 RE6 RE7 RE8)